"""Finite windows into Cayley graphs and cusped spaces.

A window is the ball of radius R_max around the identity in the Cayley
graph, together with, for each peripheral subgroup, a combinatorial
horoball truncated at height h_max over every coset that meets the ball.
Horoball vertices are (coset, offset, height) with height >= 1; heights k
and k+1 are joined by vertical edges, and two offsets at height k are
joined when their intrinsic peripheral word-metric distance is positive
and at most 2**k.  Only the 1-skeleton is built.

One grower, Ball, builds every ball of group elements, one sphere at a
time over a list of step words: the Cayley ball steps by the letters,
each peripheral graph by its generating words and their inverses, and
subgroup enumeration (algebra.subgroup_elements) by each generator and
its inverse.  Only the Cayley ball of the free backend, a tree, keeps
no element index and no word tuples: there each letter that does not
cancel is new, and a vertex is stored as its parent and its letter.

All queries are BFS-based and deterministic; distance answers carry a
caveat flag when the window cannot certify them.  The window answers
d(v, .) itself: CuspedSpace.distances(v) is one whole-window BFS per
source, built on first use and kept.  One parent-map BFS, ParentBFS,
serves every path query: bfs_parents grows one to a depth at once for
shortest paths and check_ddag, and ddag_search keeps the maps of the x
whose pair failed at n and grows them one level at n + 1 instead of
rebuilding them.  Every BFS here, bfs_distances included, expands one
level list at a time.
"""

from array import array
from bisect import bisect_left, bisect_right
from collections.abc import Sequence
from dataclasses import dataclass
from itertools import repeat

from .words import (
    ElementIndex,
    FreeBackend,
    abelian_key,
    concat,
    free_reduce,
    inverse_word,
    join,
    letter_key,
)


class WindowError(RuntimeError):
    """A window could not be completed (vertex cap, coset explosion)."""


# ---------------------------------------------------------------------------
# balls of group elements


class Ball:
    """Ball in the word metric of a list of step words that holds each
    step's inverse word, grown one sphere per grow() call.  Elements are
    integers, 0 the identity; words[v] is the first product of steps
    found for v (a list, or on a tree CayleyBall a TreeWords), dist[v]
    its number of steps, and outer the last sphere.
    Steps are freely reduced once, when the ball is made, so every word
    is freely reduced: () or the join of a word and a step, which cancels
    only across the junction.  Words are identified through an
    ElementIndex: by normal form on a canonical backend (on the free
    backend a reduced word is its own), by Dehn's algorithm within an
    abelian-key bucket otherwise; made with indexed=False, _index is
    None and a subclass grows the ball (CayleyBall on the free backend).
    Each edge is stored when its product is identified, in a slot per
    (element, step) holding the neighbour id or -1; the reverse edge
    fills the slot of the first given step spelling the inverse, so the
    outer sphere's outward slots stay empty.  Past cap elements grow()
    raises the WindowError of _cap_error()."""

    def __init__(self, backend, steps, cap=None, indexed=True):
        self._inverse = [steps.index(inverse_word(s)) for s in steps]
        self.steps = [free_reduce(s) for s in steps]
        self.backend = backend
        self.cap = cap
        self.radius = 0
        self.words = [()]
        self.dist = [0]
        self.outer = [0]
        self._index = ElementIndex(backend) if indexed else None
        if indexed:
            self._index.setdefault((), 0)
        # a list, not an array: its entries are the ids' own int
        # objects, which the window's adjacency lists then share
        self._edges = [-1] * len(steps)
        self._adjacency = None

    def grow(self):
        """Add the next sphere: every product of an outer element and a
        step, identified in the ball or stored as a new element."""
        self.radius = d = self.radius + 1
        self._adjacency = None
        words, dist, edges, index = (self.words, self.dist, self._edges,
                                     self._index)
        steps, inverse = self.steps, self._inverse
        k = len(steps)
        blank = [-1] * k
        # a product out of sphere d-1 lies in sphere d-2, d-1 or d
        near = lambda u, lo=d - 2: dist[u] >= lo
        nxt = []
        for v in self.outer:
            wv = words[v]
            for i, s in enumerate(steps):
                w = join(wv, s)
                n = len(words)
                u = index.setdefault(w, n, near)
                if u == n:
                    if n == self.cap:
                        raise self._cap_error()
                    words.append(w)
                    dist.append(d)
                    edges.extend(blank)
                    nxt.append(u)
                edges[v * k + i] = u
                edges[u * k + inverse[i]] = v
        self.outer = nxt

    @property
    def n(self):
        return len(self.dist)

    def vertex_id(self, word):
        """Id of the element equal to word, or None if not in the ball."""
        return self._index.find(word)

    def normal_forms(self, start=0):
        """Normal forms of the elements from id start on, in id order: on
        a canonical backend, the keys the index stored them under; with
        no index, the words."""
        if self._index is None:
            return self.words[start:]
        if self.backend.canonical:
            return self._index.keys()[start:]
        return [self.backend.normalize(w) for w in self.words[start:]]

    def adjacency(self):
        """Neighbour ids of every element, read off its filled slots in
        step order, with repeats; kept until the next grow()."""
        if self._adjacency is None:
            k, edges = len(self.steps), self._edges
            self._adjacency = [[u for u in edges[v * k:v * k + k] if u >= 0]
                               for v in range(self.n)]
        return self._adjacency


class CayleyBall(Ball):
    """Ball of given radius in the Cayley graph of a presentation: a Ball
    whose steps are the letters in shortlex order a, A, b, B, ..., so
    that words[v] is the shortlex-least geodesic word found for v.  The
    spheres' outward products give every edge except those joining two
    outer-sphere vertices; when some relator has odd length such edges
    can exist, and a last identify-only pass over the outer sphere
    records them.  On the free backend the Cayley graph is a tree: the
    ball keeps no index, a product is new exactly when its letter does
    not cancel the word's last one, and vertex_id walks the reduced word
    through the edge slots from 0.  Nor does it keep word tuples: the
    int arrays parent and letter hold each vertex's parent id and last
    letter, and words is a TreeWords that rebuilds them."""

    def __init__(self, presentation, backend, radius, vertex_cap=2_000_000):
        n_gens = presentation.n_gens
        letters = sorted([i for i in range(1, n_gens + 1)]
                         + [-i for i in range(1, n_gens + 1)], key=letter_key)
        super().__init__(backend, [(s,) for s in letters], cap=vertex_cap,
                         indexed=not isinstance(backend, FreeBackend))
        self.presentation = presentation
        self.letters = letters
        if self._index is None:
            # the root's parent and letter are 0, its word ()
            self.parent, self.letter = array("i", [0]), array("i", [0])
            self.words = TreeWords(self)
            # by a vertex's last letter: the slots out to its children,
            # each with the child's slot back, and the children's letters
            self._out = {x: [(i, self._inverse[i]) for i, s in
                             enumerate(letters) if s != -x]
                         for x in letters + [0]}
            self._kid_letters = {x: array("i", [s for s in letters
                                                if s != -x]).tobytes()
                                 for x in letters + [0]}
        for _ in range(radius):
            self.grow()
        # length parity survives free reduction: with every relator even
        # the graph is bipartite and no edge joins two vertices of a sphere
        if any(len(r) % 2 for r in presentation.relators):
            k, edges, words = len(letters), self._edges, self.words
            outer = lambda u: self.dist[u] == radius
            for v in self.outer:
                for i, s in enumerate(self.steps):
                    if edges[v * k + i] < 0:
                        u = self._index.find(join(words[v], s), outer)
                        if u is not None:
                            edges[v * k + i] = u
                            edges[u * k + self._inverse[i]] = v

    def grow(self):
        """Ball.grow(), or with no index the tree's next sphere: each
        outer vertex v gets a child per letter that does not cancel its
        last one, in slot order, with parent v and that letter."""
        if self._index is not None:
            return super().grow()
        self.radius = d = self.radius + 1
        self._adjacency = None
        parent, letter, edges = self.parent, self.letter, self._edges
        k, outer, n = len(self.steps), self.outer, len(self.dist)
        # the root has a child per letter, every other vertex one per
        # letter but the inverse of its last
        m = k - (d > 1)
        size = m * len(outer)
        if n + size > self.cap:
            raise self._cap_error()
        lasts = letter[n - len(outer):]
        # the parents: each outer vertex m times over
        column, src = array("i", [0]) * size, array("i", outer)
        for j in range(m):
            column[j::m] = src
        parent.extend(column)
        letter.frombytes(b"".join(map(self._kid_letters.__getitem__, lasts)))
        # the new ids' int objects, shared by the slots and by outer
        nxt = list(range(n, n + size))
        edges.extend(repeat(-1, size * k))
        kids = iter(nxt)
        for v, row in zip(outer, map(self._out.__getitem__, lasts)):
            vk = v * k
            # zip takes the row's slot first: kids stops with the row
            for (i, back), u in zip(row, kids):
                edges[vk + i] = u
                edges[u * k + back] = v
        self.dist.extend(repeat(d, size))
        self.outer = nxt

    def vertex_id(self, word):
        if self._index is not None:
            return super().vertex_id(word)
        k, v = len(self.steps), 0
        for x in self.backend.normalize(word):
            i = letter_key(x)  # the slot of x, if x is a letter
            v = self._edges[v * k + i] if 0 <= i < k else -1
            if v < 0:
                return None
        return v

    def _cap_error(self):
        return WindowError("vertex cap %d exceeded at radius %d"
                           % (self.cap, self.radius))

    def label(self, u, v):
        """The least letter slot of u that holds v, or -1.  Letters equal
        in the group share their slots, so on an edge of the ball this
        names the element u^-1 v."""
        k = len(self.letters)
        slots = self._edges[u * k:u * k + k]
        return slots.index(v) if v in slots else -1

    def neighbors(self, v):
        """List of (letter, neighbor id) pairs, in letter order."""
        k = len(self.letters)
        slots = self._edges[v * k:v * k + k]
        return [(s, u) for s, u in zip(self.letters, slots) if u >= 0]

    def sphere_sizes(self):
        sizes = [0] * (self.radius + 1)
        for d in self.dist:
            sizes[d] += 1
        return sizes


class TreeWords(Sequence):
    """The words of a tree CayleyBall, read-only, rebuilt from its parent
    and letter columns in id order one sphere at a time: each word is its
    parent's, one sphere nearer the root, plus its letter.  words[v]
    walks from v up to the root; a run of ids (a slice, or iteration)
    holds at most two spheres of words besides those it returns."""

    def __init__(self, ball):
        self._ball = ball

    def __len__(self):
        return len(self._ball.dist)

    def __getitem__(self, v):
        if isinstance(v, slice):
            ids = range(len(self))[v]
            if ids.step == 1:
                return list(self._run(ids.start, ids.stop))
            return [self[u] for u in ids]
        if not 0 <= v < len(self):
            v = range(len(self))[v]  # a negative index, or IndexError
        parent, letter, word = self._ball.parent, self._ball.letter, []
        while v:
            word.append(letter[v])
            v = parent[v]
        word.reverse()
        return tuple(word)

    def __iter__(self):
        return self._run(0, len(self))

    def _run(self, start, stop):
        if start >= stop:
            return
        parent, letter, dist = (self._ball.parent, self._ball.letter,
                                self._ball.dist)
        # the ids to build in start's sphere (all of it when the run goes
        # on past it), then in each sphere before the parents of those
        # built one sphere out, as parents run in id order
        d = dist[start]
        end = bisect_right(dist, d)
        spans = [(start, stop) if stop <= end else (bisect_left(dist, d), end)]
        for _ in range(d):
            lo, hi = spans[-1]
            spans.append((parent[lo], parent[hi - 1] + 1))
        spans.reverse()
        for j in range(d + 1, dist[stop - 1] + 1):
            lo, end = end, bisect_right(dist, j)
            spans.append((lo, min(end, stop)))
        words = [()]
        for j, (lo, hi) in enumerate(spans):
            if j:
                words = [words[p - base] + (s,) for p, s in
                         zip(parent[lo:hi], letter[lo:hi])]
            base = lo
            if j >= d:
                yield from words[start - lo:] if start > lo else words


# ---------------------------------------------------------------------------
# peripheral subgroups


# element cap of a peripheral subgroup's graph, and the most spheres it
# may grow before the window gives up on it
PERIPHERAL_CAP = 200_000
MAX_SPHERES = 4096


class PeripheralGraph(Ball):
    """Finite chunk of the Cayley graph of a peripheral subgroup H with
    respect to its given generating words: a Ball of group elements of
    the ambient group whose steps are those words, then their inverses.
    Distances here are the intrinsic H word metric."""

    def __init__(self, name, gens, backend):
        self.name = name
        self.gens = [free_reduce(g) for g in gens]
        super().__init__(backend,
                         self.gens + [inverse_word(g) for g in self.gens],
                         cap=PERIPHERAL_CAP)

    def _cap_error(self):
        return WindowError("peripheral %s exceeded element cap %d"
                           % (self.name, self.cap))

    def grow_until_gamma_length(self, needed_len):
        """Grow until the newest sphere only holds elements longer than
        needed_len in the ambient generators (so every H-element at most
        that long has been seen), or the subgroup is exhausted."""
        for _ in range(MAX_SPHERES):
            if not self.outer or min(
                    len(self.words[v]) for v in self.outer) > needed_len:
                return
            self.grow()
        raise WindowError(
            "peripheral %s did not stabilize within %d spheres"
            % (self.name, MAX_SPHERES)
        )

    def h_dist(self, i, cutoff):
        """Intrinsic distance from element i to every element at most
        cutoff away, as a dict."""
        return bfs_distances(self, [i], cutoff=cutoff)


# ---------------------------------------------------------------------------
# cusped space windows


@dataclass(frozen=True)
class HoroVertex:
    peripheral: int
    coset: int
    offset: int
    height: int


class CuspedSpace:
    """Truncated cusped space window over a ball of radius R_max with
    horoballs of height at most h_max.  Thick vertex ids coincide with the
    underlying CayleyBall ids; horoball vertices follow."""

    def __init__(self, presentation, backend, R_max, h_max):
        self.presentation = presentation
        self.backend = backend
        self.R_max = R_max
        self.h_max = h_max
        self.ball = CayleyBall(presentation, backend, R_max)
        self.pgraphs = []
        self.cosets = []  # per peripheral: list of dicts
        # per ball vertex, a tuple of (peripheral, coset, offset) triples:
        # a window without peripherals shares one empty tuple
        self._thick_memberships = [()] * self.ball.n
        for pi, (name, gens) in enumerate(presentation.peripherals):
            pg = PeripheralGraph(name, gens, backend)
            pg.grow_until_gamma_length(2 * R_max)
            self.pgraphs.append(pg)
            self.cosets.append([])
            self._assign_cosets(pi)
        # each (peripheral, coset, offset) owns a column of h_max
        # consecutive horoball ids, heights 1..h_max
        self._columns = []
        self._col0 = []
        for pi, cosets in enumerate(self.cosets):
            self._col0.append([])
            for ci, coset in enumerate(cosets):
                self._col0[pi].append(len(self._columns))
                self._columns.extend((pi, ci, oi)
                                     for oi in range(len(coset["offsets"])))
        self.n = self.ball.n + len(self._columns) * h_max
        # height of every vertex: 0 on the ball, 1..h_max up each column
        self.heights = (bytes(self.ball.n)
                        + bytes(range(1, h_max + 1)) * len(self._columns))
        self._distances = {}
        self._adjacency = None
        self._boundary_height = None

    def _assign_cosets(self, pi):
        """Put each ball vertex in the coset of the first representative
        r with r^-1 v in the peripheral graph, or make it a new coset's
        representative.  Only cosets whose representative shares v's
        abelian key modulo the relators and H's generators can hold v."""
        pg = self.pgraphs[pi]
        cosets = self.cosets[pi]
        key = abelian_key(self.presentation.n_gens,
                          self.presentation.relators + tuple(pg.gens))
        buckets = {}
        for v, wv in enumerate(self.ball.words):
            bucket = buckets.setdefault(key(wv), [])
            for ci in bucket:
                coset = cosets[ci]
                u = pg.vertex_id(concat(inverse_word(coset["rep_word"]), wv))
                if u is not None:
                    coset["offsets"].append((u, v))
                    self._thick_memberships[v] += (
                        (pi, ci, len(coset["offsets"]) - 1),)
                    break
            else:
                bucket.append(len(cosets))
                self._thick_memberships[v] += ((pi, len(cosets), 0),)
                cosets.append({"rep_word": wv, "offsets": [(0, v)]})

    # -- structure queries ------------------------------------------------

    def _column(self, vid):
        """(peripheral, coset, offset, height) of a horoball vertex."""
        col, k = divmod(vid - self.ball.n, self.h_max)
        return self._columns[col] + (k + 1,)

    def describe(self, vid):
        if vid < self.ball.n:
            return ("thick", self.ball.words[vid])
        return ("horoball", HoroVertex(*self._column(vid)))

    def height(self, vid):
        return self.heights[vid]

    def vertices(self):
        return range(self.n)

    def horo_id(self, pi, ci, oi, k):
        if k == 0:
            return self.cosets[pi][ci]["offsets"][oi][1]
        if 1 <= k <= self.h_max:
            return (self.ball.n + (self._col0[pi][ci] + oi) * self.h_max
                    + k - 1)
        return None

    def vertical_ray(self, thick_vid, pi=0):
        """Vertex ids of the vertical ray over a thick vertex in the
        horoball of peripheral pi, from height 0 up to h_max."""
        for p, ci, oi in self._thick_memberships[thick_vid]:
            if p == pi:
                ray = [thick_vid]
                for k in range(1, self.h_max + 1):
                    hid = self.horo_id(pi, ci, oi, k)
                    if hid is None:
                        break
                    ray.append(hid)
                return ray
        raise ValueError("vertex %d not in a coset of peripheral %d" % (thick_vid, pi))

    def adjacency(self):
        """The sorted neighbour list of every vertex, indexed by vertex id.
        Built on the first call (the first query walks the whole window
        anyway) and shared afterwards: callers must not mutate it."""
        if self._adjacency is None:
            self._build_graph()
        return self._adjacency

    def neighbors(self, vid):
        """Sorted neighbor ids, a list shared with adjacency(): do not
        mutate it.  Thick: Cayley edges plus vertical edges into each
        horoball; horoball: vertical plus 2**k-horizontal."""
        return self.adjacency()[vid]

    def _build_graph(self):
        """Every vertex's sorted neighbour list and every column's lowest
        boundary height, from one peripheral BFS of radius 2**h_max per
        offset.  An offset at intrinsic distance d > 0 is a horizontal
        neighbour at every height k with 2**k >= d, so from height
        first_height[d] up; a coset's dict from element to column start
        sorts each element the BFS reaches into a held column or the
        outside."""
        ball, h = self.ball, self.h_max
        # horoball ids recur in many lists: share one int object per id
        ids = list(range(self.n)) if self.n > ball.n else None
        # a ball vertex's Cayley neighbours are its filled edge slots
        edges, n_letters = ball._edges, len(ball.letters)
        adj = []
        for v in range(ball.n):
            out = edges[v * n_letters:(v + 1) * n_letters]
            if ids:
                out.extend(ids[self.horo_id(pi, ci, oi, 1)]
                           for pi, ci, oi in self._thick_memberships[v])
            # the empty slots, -1, sort first; a slice past them is a
            # list of its own size, where deleting them in place would
            # keep the slots' capacity
            out.sort()
            empty = out.count(-1)
            adj.append(out[empty:] if empty else out)
        self._adjacency = adj
        self._boundary_height = boundary_height = []
        if ids is None:
            return
        # the least k >= 1 with 2**k >= d, for d = 1..2**h + 1; the
        # source itself (d = 0) goes to the unused slot 0
        first_height = [0] + [max(1, (d - 1).bit_length())
                              for d in range(1, 2 ** h + 2)]
        for pi, cosets in enumerate(self.cosets):
            pg = self.pgraphs[pi]
            for ci, coset in enumerate(cosets):
                offsets = coset["offsets"]
                first = self.horo_id(pi, ci, 0, 1)
                column = {hj: first + oj * h
                          for oj, (hj, _) in enumerate(offsets)}
                for oi, (hi, v) in enumerate(offsets):
                    # columns joined first at height k, and the distance
                    # to the nearest element outside the offsets held
                    joined = [[] for _ in range(h + 1)]
                    outside = 2 ** h + 1
                    for hj, d in pg.h_dist(hi, 2 ** h).items():
                        c = column.get(hj)
                        if c is not None:
                            joined[first_height[d]].append(c)
                        elif d < outside:
                            outside = d
                    boundary_height.append(min(h, first_height[outside]))
                    col = first + oi * h
                    level = []
                    for k in range(1, h + 1):
                        level.extend(joined[k])
                        out = [ids[c + k - 1] for c in level]
                        out.append(v if k == 1 else ids[col + k - 2])
                        if k < h:
                            out.append(ids[col + k])
                        out.sort()
                        adj.append(out)

    def distances(self, v):
        """Window distance from v to every vertex it reaches, as a dict in
        (distance, id) order.  Built on first use and kept for the
        window's life: callers must not mutate it."""
        dist = self._distances.get(v)
        if dist is None:
            adj = self.adjacency()
            dist = self._distances[v] = {v: 0}
            level, d = [v], 0
            while level:
                d += 1
                level = sorted({w for u in level for w in adj[u]
                                if w not in dist})
                dist.update(dict.fromkeys(level, d))
        return dist

    def group_word(self, vid):
        """A group element word marking the vertex: the vertex itself for
        thick vertices, the height-0 point below for horoball vertices."""
        if vid < self.ball.n:
            return self.ball.words[vid]
        pi, ci, oi, _ = self._column(vid)
        return self.ball.words[self.cosets[pi][ci]["offsets"][oi][1]]

    def translate(self, g, vid):
        """Left-translate a vertex by the group element word g; None when
        the image leaves the window."""
        base = self.ball.vertex_id(concat(g, self.group_word(vid)))
        if base is None:
            return None
        if vid < self.ball.n:
            return base
        peripheral, _, _, k = self._column(vid)
        for pi, ci, oi in self._thick_memberships[base]:
            if pi == peripheral:
                return self.horo_id(pi, ci, oi, k)
        return None

    def boundary_vertex(self, vid):
        """True when the vertex may have neighbors missing from the
        window: thick vertices on the outer sphere, horoball vertices at
        the top, and horoball vertices whose horizontal 2**k-reach extends
        past the offsets the window holds."""
        if vid < self.ball.n:
            return self.ball.dist[vid] >= self.R_max
        self.adjacency()
        col, k = divmod(vid - self.ball.n, self.h_max)
        return k + 1 >= self._boundary_height[col]


# ---------------------------------------------------------------------------
# BFS queries


def bfs_distances(space, sources, cutoff=None):
    """Distance map from a set of sources over space.adjacency(), to
    depth cutoff (whole window when None), in the order vertices are
    reached: one level list at a time."""
    adj = space.adjacency()
    dist = dict.fromkeys(sources, 0)
    level, d = list(dist), 0
    while level and (cutoff is None or d < cutoff):
        d += 1
        nxt = []
        for v in level:
            for u in adj[v]:
                if u not in dist:
                    dist[u] = d
                    nxt.append(u)
        level = nxt
    return dist


class ParentBFS:
    """Parent map of a BFS from x over the neighbour lists adj, grown one
    level at a time: parent holds the vertices reached, in the order
    reached (x maps to None), each mapped to the first vertex to reach
    it; frontier is the last level reached and level its depth.  A
    vertex u other than x with dist[u] <= cutoff is reached but never
    expanded.  A map grown to depth n in several steps is the same dict,
    in the same order, as one grown to n at once, so a caller may keep
    it and resume."""

    __slots__ = ("parent", "frontier", "level", "_adj", "_dget", "_cutoff")

    def __init__(self, adj, x, dist=None, cutoff=-1):
        self.parent = {x: None}
        self.frontier = [x]
        self.level = 0
        self._adj = adj
        self._dget = {}.get if dist is None else dist.get
        self._cutoff = cutoff

    def grow(self, depth, stop=None):
        """Expand level by level until depth or an empty frontier, and
        return the parent map.  Reaching stop returns at once, mid-level:
        such a map must not be grown again."""
        parent, frontier, level = self.parent, self.frontier, self.level
        adj, dget, cutoff = self._adj, self._dget, self._cutoff
        while frontier and level < depth:
            level += 1
            nxt = []
            for u in frontier:
                for w in adj[u]:
                    if w in parent:
                        continue
                    parent[w] = u
                    if w == stop:
                        return parent
                    dw = dget(w)
                    if dw is None or dw > cutoff:
                        nxt.append(w)
            frontier = nxt
        self.frontier, self.level = frontier, level
        return parent


def bfs_parents(adj, x, depth, dist=None, cutoff=-1, stop=None):
    """The parent map of a ParentBFS from x grown to depth at once; the
    BFS returns as soon as it reaches stop."""
    return ParentBFS(adj, x, dist, cutoff).grow(depth, stop)


def path_to(parent, y):
    """The path from the root of a bfs_parents map to y."""
    path = [y]
    while parent[path[-1]] is not None:
        path.append(parent[path[-1]])
    path.reverse()
    return path


def shortest_path(space, x, y):
    """BFS geodesic from x to y, or None.  Each vertex's parent is the
    first vertex to reach it in a FIFO BFS from x over the sorted
    neighbour lists, so the path is reproducible."""
    if x == y:
        return [x]
    parent = bfs_parents(space.adjacency(), x, space.n, stop=y)
    return path_to(parent, y) if y in parent else None


@dataclass(frozen=True)
class DistanceAnswer:
    dist: object  # int or None
    path: object
    caveat: bool


def distance(space, x, y):
    """Window distance with a witness path and a conservative caveat flag.

    The caveat is set when the reported distance is large enough that a
    shorter connection could exist outside the window: dist >= the slack
    of either endpoint (its distance to the window boundary in radius or
    in horoball height).
    """
    path = shortest_path(space, x, y)
    if path is None:
        return DistanceAnswer(None, None, True)
    d = len(path) - 1
    caveat = d >= min(_slack(space, x), _slack(space, y))
    return DistanceAnswer(d, path, caveat)


def _slack(space, vid):
    bd = space.distances(0).get(vid)
    if bd is None:
        return 0
    radial = space.R_max - min(bd, space.R_max)
    vertical = space.h_max - space.height(vid)
    return max(1, min(radial + vertical, radial + space.h_max))


@dataclass(frozen=True)
class ValenceStats:
    max_valence: int
    max_ball_size: int
    caveat: bool


def valence_stats(space, height_bound, ball_radius):
    """B = max valence over vertices of height <= height_bound; V = max
    size of a ball_radius-ball around such vertices.  Caveat when a
    surveyed vertex sits close enough to the window boundary that the
    true valence or ball could be larger."""
    B = 0
    V = 0
    caveat = False
    for v in space.vertices():
        if space.height(v) > height_bound:
            continue
        deg = len(space.neighbors(v))
        B = max(B, deg)
        size = len(bfs_distances(space, [v], cutoff=ball_radius))
        V = max(V, size)
        if _slack(space, v) <= ball_radius:
            caveat = True
    return ValenceStats(B, V, caveat)


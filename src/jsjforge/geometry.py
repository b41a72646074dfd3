"""Finite windows into Cayley graphs and cusped spaces.

A window is the ball of radius R_max around the identity in the Cayley
graph, together with, for each peripheral subgroup, a combinatorial
horoball truncated at height h_max over every coset that meets the ball.
Horoball vertices are (coset, offset, height) with height >= 1; heights k
and k+1 are joined by vertical edges, and two offsets at height k are
joined when their intrinsic peripheral word-metric distance is positive
and at most 2**k.  Only the 1-skeleton is built.

All queries are BFS-based and deterministic; distance answers carry a
caveat flag when the window cannot certify them.
"""

from collections import deque
from dataclasses import dataclass
from fractions import Fraction

from .words import (
    BackendError,
    concat,
    free_reduce,
    inverse_word,
    letter_key,
    word_to_str,
)


class WindowError(RuntimeError):
    """A window could not be completed (vertex cap, coset explosion)."""


# ---------------------------------------------------------------------------
# Cayley balls


class CayleyBall:
    """Ball of given radius in the Cayley graph of a presentation.

    Vertices are integers; vertex 0 is the identity.  words[v] is the
    shortlex-least geodesic word found for v.  For canonical backends the
    ball stores no edges: neighbors() derives them from the word problem
    (CuspedSpace.adjacency() asks once per vertex).  For non-canonical
    backends they are stored at construction time, which never multiplies
    out of the outer sphere: an edge joining two outer-sphere vertices,
    possible only when some relator has odd length, is missing.
    """

    def __init__(self, presentation, backend, radius, vertex_cap=2_000_000):
        backend._require_valid()
        self.presentation = presentation
        self.backend = backend
        self.radius = radius
        letters = sorted(
            [i for i in range(1, presentation.n_gens + 1)]
            + [-i for i in range(1, presentation.n_gens + 1)],
            key=letter_key,
        )
        self.letters = letters
        self.words = [()]
        self.dist = [0]
        canonical = backend.canonical
        if canonical:
            self._ids = {backend.normalize(()): 0}
            self._adj = None
        else:
            self._ids = None
            self._adj = [[] for _ in range(1)]
        level = [0]
        for d in range(1, radius + 1):
            nxt = []
            for v in level:
                wv = self.words[v]
                for s in letters:
                    w = concat(wv, (s,))
                    if canonical:
                        key = backend.normalize(w)
                        u = self._ids.get(key)
                    else:
                        u = self._identify(w, d)
                    if u is None:
                        u = len(self.words)
                        self.words.append(w)
                        self.dist.append(d)
                        if canonical:
                            self._ids[key] = u
                        else:
                            self._adj.append([])
                        if u >= vertex_cap:
                            raise WindowError(
                                "vertex cap %d exceeded at radius %d"
                                % (vertex_cap, d)
                            )
                        nxt.append(u)
                    if not canonical:
                        if (s, u) not in self._adj[v]:
                            self._adj[v].append((s, u))
                        if (-s, v) not in self._adj[u]:
                            self._adj[u].append((-s, v))
            level = nxt

    def _identify(self, word, d=None):
        """Vertex id equal to word in the group, or None if not in the ball."""
        if self.backend.canonical:
            return self._ids.get(self.backend.normalize(word))
        lo = 0 if d is None else max(0, d - 2)
        for u in range(len(self.words)):
            if d is not None and not (lo <= self.dist[u] <= d):
                continue
            if self.backend.equal(self.words[u], word):
                return u
        return None

    def vertex_id(self, word):
        return self._identify(word)

    @property
    def n(self):
        return len(self.words)

    def neighbors(self, v):
        """List of (letter, neighbor id) pairs, deterministic order."""
        if self._adj is not None:
            return sorted(self._adj[v], key=lambda e: letter_key(e[0]))
        out = []
        wv = self.words[v]
        for s in self.letters:
            u = self._ids.get(self.backend.normalize(concat(wv, (s,))))
            if u is not None:
                out.append((s, u))
        return out

    def sphere_sizes(self):
        sizes = [0] * (self.radius + 1)
        for d in self.dist:
            sizes[d] += 1
        return sizes


# ---------------------------------------------------------------------------
# peripheral subgroups


class PeripheralGraph:
    """Finite chunk of the Cayley graph of a peripheral subgroup H with
    respect to its given generating words.  Elements are group elements of
    the ambient group; distances here are the intrinsic H word metric."""

    def __init__(self, name, gens, backend, elem_cap=200_000):
        self.name = name
        self.gens = [free_reduce(g) for g in gens]
        self.backend = backend
        self.elems = [()]
        self._keys = {self._key(()): 0}
        self.adj = [[]]
        self._frontier = [0]
        self.elem_cap = elem_cap
        self._steps = [g for g in self.gens] + [inverse_word(g) for g in self.gens]

    def _key(self, word):
        if self.backend.canonical:
            return self.backend.normalize(word)
        return None

    def _lookup(self, word):
        if self.backend.canonical:
            return self._keys.get(self.backend.normalize(word))
        for i, e in enumerate(self.elems):
            if self.backend.equal(e, word):
                return i
        return None

    def grow(self, spheres):
        """Expand the subgroup BFS by the given number of spheres."""
        for _ in range(spheres):
            if not self._frontier:
                return
            nxt = []
            for v in self._frontier:
                for step in self._steps:
                    w = concat(self.elems[v], step)
                    u = self._lookup(w)
                    if u is None:
                        u = len(self.elems)
                        if u >= self.elem_cap:
                            raise WindowError(
                                "peripheral %s exceeded element cap %d"
                                % (self.name, self.elem_cap)
                            )
                        self.elems.append(w)
                        self.adj.append([])
                        if self.backend.canonical:
                            self._keys[self.backend.normalize(w)] = u
                        nxt.append(u)
                    if u != v:
                        if u not in self.adj[v]:
                            self.adj[v].append(u)
                        if v not in self.adj[u]:
                            self.adj[u].append(v)
            self._frontier = nxt

    def grow_until_gamma_length(self, needed_len, max_spheres=4096):
        """Grow until the newest sphere only holds elements longer than
        needed_len in the ambient generators (so every H-element at most
        that long has been seen), or the subgroup is exhausted."""
        for _ in range(max_spheres):
            if not self._frontier:
                return
            if self._frontier and min(
                len(self.elems[v]) for v in self._frontier
            ) > needed_len:
                return
            self.grow(1)
        raise WindowError(
            "peripheral %s did not stabilize within %d spheres"
            % (self.name, max_spheres)
        )

    def member_id(self, word):
        return self._lookup(word)

    def adjacency(self):
        """Neighbour list of every element, in discovery order."""
        return self.adj

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

    def __init__(self, presentation, backend, R_max, h_max,
                 vertex_cap=2_000_000, peripheral_cap=200_000):
        self.presentation = presentation
        self.backend = backend
        self.R_max = R_max
        self.h_max = h_max
        self.ball = CayleyBall(presentation, backend, R_max, vertex_cap)
        self.pgraphs = []
        self.cosets = []  # per peripheral: list of dicts
        self._thick_memberships = [[] for _ in range(self.ball.n)]
        for pi, (name, gens) in enumerate(presentation.peripherals):
            pg = PeripheralGraph(name, gens, backend, peripheral_cap)
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
        self._base_dist = None
        self._adjacency = None
        self._boundary_height = None

    def _assign_cosets(self, pi):
        pg = self.pgraphs[pi]
        cosets = self.cosets[pi]
        for v in range(self.ball.n):
            wv = self.ball.words[v]
            placed = False
            for ci, coset in enumerate(cosets):
                u = pg.member_id(concat(inverse_word(coset["rep_word"]), wv))
                if u is not None:
                    coset["offsets"].append((u, v))
                    self._thick_memberships[v].append((pi, ci, len(coset["offsets"]) - 1))
                    placed = True
                    break
            if not placed:
                cosets.append({"rep_word": wv, "offsets": [(0, v)]})
                ci = len(cosets) - 1
                self._thick_memberships[v].append((pi, ci, 0))

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
        if vid < self.ball.n:
            return 0
        return (vid - self.ball.n) % self.h_max + 1

    def vertices(self):
        return range(self.n)

    def horo_id(self, pi, ci, oi, k):
        if k == 0:
            return self.cosets[pi][ci]["offsets"][oi][1]
        if 1 <= k <= self.h_max:
            return (self.ball.n + (self._col0[pi][ci] + oi) * self.h_max
                    + k - 1)
        return None

    def vertical_ray(self, thick_vid, pi=0, top=None):
        """Vertex ids of the vertical ray over a thick vertex in the
        horoball of peripheral pi, from height 0 up to top (or h_max)."""
        if top is None:
            top = self.h_max
        for p, ci, oi in self._thick_memberships[thick_vid]:
            if p == pi:
                ray = [thick_vid]
                for k in range(1, top + 1):
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
        neighbour at every height k with 2**k >= d."""
        ball, h = self.ball, self.h_max
        # horoball ids recur in many lists: share one int object per id
        ids = list(range(self.n)) if self.n > ball.n else None
        adj = []
        for v in range(ball.n):
            out = [u for _, u in ball.neighbors(v)]
            if ids:
                out.extend(ids[self.horo_id(pi, ci, oi, 1)]
                           for pi, ci, oi in self._thick_memberships[v])
            adj.append(sorted(out))
        self._adjacency = adj
        self._boundary_height = boundary_height = []
        if ids is None:
            return
        for pi, cosets in enumerate(self.cosets):
            pg = self.pgraphs[pi]
            for ci, coset in enumerate(cosets):
                offsets = coset["offsets"]
                index = {hj: oj for oj, (hj, _) in enumerate(offsets)}
                first = self.horo_id(pi, ci, 0, 1)
                for oi, (hi, v) in enumerate(offsets):
                    # columns joined first at height k, and the distance
                    # to the nearest element outside the offsets held
                    joined = [[] for _ in range(h + 1)]
                    outside = 2 ** h + 1
                    for hj, d in pg.h_dist(hi, 2 ** h).items():
                        oj = index.get(hj)
                        if oj is None:
                            outside = min(outside, d)
                        elif d > 0:
                            joined[max(1, (d - 1).bit_length())].append(
                                first + oj * h)
                    boundary_height.append(
                        min(h, max(1, (outside - 1).bit_length())))
                    col = first + oi * h
                    level = []
                    for k in range(1, h + 1):
                        level.extend(joined[k])
                        out = [ids[c + k - 1] for c in level]
                        out.append(v if k == 1 else ids[col + k - 2])
                        if k < h:
                            out.append(ids[col + k])
                        adj.append(sorted(out))

    def base_dist(self, vid):
        """Window-graph distance from the identity (cached BFS)."""
        if self._base_dist is None:
            self._base_dist = bfs_distances(self, [0])
        return self._base_dist.get(vid)

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


def build_cusped_space(presentation, backend, R_max, h_max,
                       vertex_cap=2_000_000, peripheral_cap=200_000):
    return CuspedSpace(presentation, backend, R_max, h_max,
                       vertex_cap, peripheral_cap)


# ---------------------------------------------------------------------------
# BFS queries


def bfs_distances(space, sources, cutoff=None, forbidden=None):
    """Distance map from a set of sources over space.adjacency();
    forbidden vertices are removed from the graph entirely (not usable
    even as endpoints)."""
    adj = space.adjacency()
    dist = {}
    q = deque()
    for s in sources:
        if forbidden is not None and s in forbidden:
            continue
        if s not in dist:
            dist[s] = 0
            q.append(s)
    while q:
        v = q.popleft()
        d = dist[v]
        if cutoff is not None and d >= cutoff:
            continue
        for u in adj[v]:
            if u in dist:
                continue
            if forbidden is not None and u in forbidden:
                continue
            dist[u] = d + 1
            q.append(u)
    return dist


def shortest_path(space, x, y, cutoff=None, forbidden=None):
    """Deterministic BFS geodesic from x to y, or None.  Parent choices
    take the smallest vertex id, so the path is reproducible."""
    if forbidden is not None and (x in forbidden or y in forbidden):
        return None
    if x == y:
        return [x]
    adj = space.adjacency()
    parent = {x: None}
    q = deque([x])
    depth = {x: 0}
    while q:
        v = q.popleft()
        if cutoff is not None and depth[v] >= cutoff:
            continue
        for u in adj[v]:
            if u in parent:
                continue
            if forbidden is not None and u in forbidden:
                continue
            parent[u] = v
            depth[u] = depth[v] + 1
            if u == y:
                path = [u]
                while parent[path[-1]] is not None:
                    path.append(parent[path[-1]])
                return list(reversed(path))
            q.append(u)
    return None


@dataclass(frozen=True)
class DistanceAnswer:
    dist: object  # int or None
    path: object
    caveat: bool


def distance(space, x, y, cutoff=None):
    """Window distance with a witness path and a conservative caveat flag.

    The caveat is set when the reported distance is large enough that a
    shorter connection could exist outside the window: dist >= the slack
    of either endpoint (its distance to the window boundary in radius or
    in horoball height).
    """
    path = shortest_path(space, x, y, cutoff=cutoff)
    if path is None:
        return DistanceAnswer(None, None, True)
    d = len(path) - 1
    caveat = d >= min(_slack(space, x), _slack(space, y))
    return DistanceAnswer(d, path, caveat)


def _slack(space, vid):
    bd = space.base_dist(vid)
    if bd is None:
        return 0
    radial = space.R_max - min(bd, space.R_max)
    vertical = space.h_max - space.height(vid)
    return max(1, min(radial + vertical, radial + space.h_max))


def is_local_geodesic(space, path, scale):
    """Every subpath of length <= scale is a geodesic in the window."""
    n = len(path) - 1
    if n <= 0:
        return True
    # consecutive vertices must be adjacent
    for i in range(n):
        if path[i + 1] not in space.neighbors(path[i]):
            return False
    L = min(scale, n)
    for i in range(0, n - L + 1):
        sub = path[i:i + L + 1]
        sp = shortest_path(space, sub[0], sub[-1], cutoff=L)
        if sp is None or len(sp) - 1 < L:
            return False
    return True


def gromov_product(space, v, x, y):
    """(x|y)_v = (d(v,x) + d(v,y) - d(x,y)) / 2 as an exact Fraction."""
    dvx = distance(space, v, x)
    dvy = distance(space, v, y)
    dxy = distance(space, x, y)
    if None in (dvx.dist, dvy.dist, dxy.dist):
        return None
    return Fraction(dvx.dist + dvy.dist - dxy.dist, 2)


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


# ---------------------------------------------------------------------------
# exports


def vertex_label(space, vid):
    kind, data = space.describe(vid)
    if kind == "thick":
        return word_to_str(data, space.presentation.generators)
    hv = data
    name = space.presentation.peripherals[hv.peripheral][0]
    return "%s[%d.%d]@%d" % (name, hv.coset, hv.offset, hv.height)


def to_dot(space, highlight=()):
    lines = ["graph window {"]
    hi = set(highlight)
    for v in space.vertices():
        style = ' color="red"' if v in hi else ""
        lines.append('  n%d [label="%s"%s];' % (v, vertex_label(space, v), style))
    for v in space.vertices():
        for u in space.neighbors(v):
            if u > v:
                lines.append("  n%d -- n%d;" % (v, u))
    lines.append("}")
    return "\n".join(lines) + "\n"


import hashlib
import random
from collections import deque

import networkx as nx
import pytest

import jsjforge.geometry
from jsjforge.algebra import _subgroup_ball
from jsjforge.geometry import (Ball, CayleyBall, CuspedSpace, HoroVertex,
                               PeripheralGraph, WindowError, bfs_distances,
                               distance, shortest_path, valence_stats)
from jsjforge.words import (ElementIndex, FreeBackend, concat,
                            default_backend, free_reduce, parse_presentation)


def test_cayley_ball_free_group_sphere_sizes(free2_space):
    # F2 tree: sphere sizes 1, 4, 12, 36, ...
    sizes = free2_space.ball.sphere_sizes()
    assert sizes[:4] == [1, 4, 12, 36]


def test_cayley_ball_identifies_group_elements(free2_space):
    ball = free2_space.ball
    assert ball.vertex_id(()) == 0
    assert ball.vertex_id((1, -1)) == 0
    v = ball.vertex_id((1, 2))
    assert v is not None and ball.dist[v] == 2


def test_genus2_ball_growth_series():
    # Floyd-Plotnick (1987): the genus-2 surface group's growth series
    p = parse_presentation("gen a b c d\nrel abABcdCD\n")
    ball = CayleyBall(p, default_backend(p), 4)
    assert ball.sphere_sizes() == [1, 8, 56, 392, 2736]


def test_odd_relator_ball_vertex_count():
    # a key on raw exponent vectors would split elements equal through
    # the relator, whose vector (1, -1, -1) is not zero: 937 vertices
    p = parse_presentation("gen a b c\nrel aBCCbcB\n")
    ball = CayleyBall(p, default_backend(p), 4)
    assert ball.n == 923
    assert ball.sphere_sizes() == [1, 6, 30, 150, 736]


def test_odd_relator_outer_sphere_edges_brute_force():
    """The ball's edges between outer vertices are exactly the (vertex,
    letter, vertex) triples that a brute-force equal check finds: an odd
    relator joins vertices within a sphere."""
    p = parse_presentation("gen a b c\nrel aBCCbcB\n")
    be = default_backend(p)
    ball = CayleyBall(p, be, 3)
    outer = [v for v in range(ball.n) if ball.dist[v] == 3]
    want, have = set(), set()
    for v in outer:
        have.update((v, s, u) for s, u in ball.neighbors(v) if u in outer)
        for s in ball.letters:
            w = ball.words[v] + (s,)
            want.update((v, s, u) for u in outer
                        if be.equal(ball.words[u], w))
    assert want and have == want


def _line_oracle(R, h):
    """Independent model of the cusped window over (Z, {Z}): the integer
    line plus a combinatorial horoball, horizontal reach 2**k at height k."""
    g = nx.Graph()
    xs = range(-R, R + 1)
    for x in xs:
        if x + 1 <= R:
            g.add_edge(("t", x), ("t", x + 1))
        g.add_edge(("t", x), ("h", x, 1))
        for k in range(1, h + 1):
            if k + 1 <= h:
                g.add_edge(("h", x, k), ("h", x, k + 1))
            for y in xs:
                if 0 < y - x <= 2 ** k:
                    g.add_edge(("h", x, k), ("h", y, k))
    return g


def test_cusped_space_distances_match_oracle(line_space):
    space = line_space
    oracle = _line_oracle(space.R_max, space.h_max)

    def tid(x):
        word = (1,) * x if x >= 0 else (-1,) * (-x)
        return space.ball.vertex_id(word)

    for x, y in [(0, 1), (0, 4), (-3, 9), (0, 16), (-16, 16), (2, 11)]:
        got = distance(space, tid(x), tid(y)).dist
        want = nx.shortest_path_length(oracle, ("t", x), ("t", y))
        assert got == want, (x, y, got, want)


def test_cusped_space_horoball_shortcut(line_space):
    # going up the horoball beats walking along the line
    space = line_space
    a, b = space.ball.vertex_id((1,) * 16), space.ball.vertex_id((-1,) * 16)
    d = distance(space, a, b).dist
    assert d < 32
    assert d == nx.shortest_path_length(_line_oracle(16, 6),
                                        ("t", 16), ("t", -16))


def test_neighbors_sorted_and_symmetric(line_space):
    space = line_space
    for v in list(space.vertices())[:200]:
        ns = space.neighbors(v)
        assert ns == sorted(ns)
        for u in ns:
            assert v in space.neighbors(u)


# sha256 over "v:n1 n2 ...\n" for every vertex in id order
ADJACENCY_GOLDEN = [
    ("gen a\nper P = a\n", 16, 6, 231,
     "fc2d9ddc99dbfe2cf05dbb7f17009c80a67d9152f73be633d1aa5d7445590ce5"),
    # the line-horoball benchmark window: columns joined at heights up
    # to 8, horizontal distances up to 256
    ("gen a\nper P = a\n", 64, 8, 1161,
     "b81960b7c3a7a304927fb69b725087b5b1bdda9ced7b4a94c944fe3166f0b8b1"),
    ("gen a b\n", 6, 0, 1457,
     "6e074c9f586aab4162baec07c389359909135cf7dd71194df7cfb05584101659"),
    ("gen a b\nper A = a\n", 4, 3, 644,
     "82f54ad16afac26cd6c1faefb147c9c130db15cea8a50d70b3cd6d6db2bc4aba"),
    ("gen a b c d\nrel abABcdCD\n", 3, 1, 457,
     "f061ef1a60ab9b1b206027e5986876898a8f4abc9591070543629e19a039e1fb"),
    ("gen a b c d\nrel abABcdCD\nper P = a\n", 2, 2, 195,
     "48dbfce70afad68f56319cea2ad9713d8f4490a58aaf5c19f95ebfc2dd5c9122"),
    # a two-generator peripheral: its graph steps by a, b, A, B
    ("gen a b c\nper P = a b\n", 3, 2, 561,
     "69d1737f987a61412a2d51eae86dbef71d92f874229881845905a4fa0faa1e4e"),
]


@pytest.mark.parametrize("text,R,h,n,digest", ADJACENCY_GOLDEN)
def test_window_adjacency_golden(text, R, h, n, digest):
    p = parse_presentation(text)
    space = CuspedSpace(p, default_backend(p), R_max=R, h_max=h)
    assert space.n == n
    hsh = hashlib.sha256()
    for v in space.vertices():
        assert space.neighbors(v) is space.adjacency()[v]
        hsh.update(("%d:%s\n" % (v, " ".join(map(str, space.neighbors(v)))))
                   .encode())
    assert hsh.hexdigest() == digest


@pytest.mark.parametrize("text,R,h", [
    ("gen a b\nrel aaa\nrel bb\n", 6, 0),
    ("gen a b\nrel aaa\nrel bb\nper B = b\n", 4, 2),
    ("gen a b c\nrel aBCCbcB\n", 3, 0),
    ("gen a b\nper A = a\nper B = b\n", 3, 2),
])
def test_thick_adjacency_matches_ball_neighbors(text, R, h):
    """Each thick vertex's window neighbours are, sorted, its Cayley
    neighbours read off the filled edge slots, with repeats, and its
    vertical edge into the horoball of each peripheral: where two
    letters are equal in the group (b = B when b^2 = 1) both slots hold
    the same neighbour."""
    p = parse_presentation(text)
    space = CuspedSpace(p, default_backend(p), R_max=R, h_max=h)
    ball = space.ball
    repeats = 0
    for v in range(ball.n):
        cayley = [u for _, u in ball.neighbors(v)]
        vertical = [space.vertical_ray(v, pi)[1]
                    for pi in range(len(space.pgraphs))]
        assert space.neighbors(v) == sorted(cayley + vertical)
        repeats += len(set(cayley)) < len(cayley)
    assert (repeats > 0) == ("bb" in text)


def _peripheral_nx(pg):
    g = nx.Graph()
    g.add_nodes_from(range(len(pg.adjacency())))
    g.add_edges_from((i, j) for i, ns in enumerate(pg.adjacency())
                     for j in ns)
    return g


def test_peripheral_graph_steps_by_generators_then_inverses():
    p = parse_presentation("gen a b c\nper P = a b\n")
    pg = PeripheralGraph("P", [(1,), (2,)], default_backend(p))
    pg.grow()
    pg.grow()
    assert pg.words[:8] == [(), (1,), (2,), (-1,), (-2,),
                            (1, 1), (1, 2), (1, -2)]
    # a's slots in step order a, b, A, B: aa, ab, the identity, aB
    assert pg.adjacency()[1] == [5, 6, 0, 7]
    assert pg.vertex_id((2, 1, -1)) == 2


def _balls():
    """Balls of each kind, on the free, Dehn and rewriting backends, some
    with unreduced steps."""
    free = default_backend(parse_presentation("gen a b\n"))
    g2 = default_backend(parse_presentation("gen a b c d\nrel abABcdCD\n"))
    z3 = default_backend(parse_presentation("gen a b\nrel aaa\n"))
    balls = [CayleyBall(free.presentation, free, 4),
             CayleyBall(g2.presentation, g2, 2),
             CayleyBall(z3.presentation, z3, 3),
             PeripheralGraph("P", [(1, 2, -2), (2, 1, -1, 2)], free),
             # a, then the same a spelled unreduced: two slots of one step
             _subgroup_ball(free, [(1,), (1, 2, -2)]),
             _subgroup_ball(g2, [(1, 2, -2, 3), (4,)])]
    for ball in balls[3:]:
        for _ in range(3):
            ball.grow()
    return balls


def test_ball_words_and_steps_are_freely_reduced():
    for ball in _balls():
        assert all(free_reduce(s) == s for s in ball.steps)
        assert all(free_reduce(w) == w for w in ball.words)


def test_ball_edges_are_products_and_inverse_slots_are_kept():
    # _inverse names the first given step that spells the inverse word,
    # before reduction: A's slot for a, not the unreduced a's
    ball = _subgroup_ball(default_backend(parse_presentation("gen a b\n")),
                          [(1,), (1, 2, -2)])
    assert ball.steps == [(1,), (-1,), (1,), (-1,)]
    assert ball._inverse == [1, 0, 3, 2]
    for ball in _balls():
        backend, k = ball.backend, len(ball.steps)
        for v, wv in enumerate(ball.words):
            for i, s in enumerate(ball.steps):
                u = ball._edges[v * k + i]
                if u >= 0:
                    assert backend.equal(concat(wv, s), ball.words[u])


def test_free_ball_normal_forms_are_its_words(monkeypatch):
    # on the free backend a reduced word is its own key: the normal forms
    # are the words, read with no normalize call; an indexed ball holds
    # one tuple per element, which both lists share
    free = default_backend(parse_presentation("gen a b\n"))
    tree = CayleyBall(free.presentation, free, 3)
    sub = _subgroup_ball(free, [(1, 2), (2, -1, -1)])
    for ball in (tree, sub):
        ball.grow()
        assert ball.normal_forms() == list(ball.words)
    assert all(nf is w for nf, w in zip(sub.normal_forms(), sub.words))
    monkeypatch.setattr(FreeBackend, "normalize",
                        lambda self, w: pytest.fail("normalize called"))
    assert tree.normal_forms(5) == list(tree.words)[5:]


class _NoSkipBall(CayleyBall):
    """Negative control: a tree grower that also makes the product of the
    letter cancelling a word's last letter a new element."""

    def grow(self):
        self.radius = d = self.radius + 1
        k, nxt = len(self.steps), []
        for v in self.outer:
            for i, (s,) in enumerate(self.steps):
                n = self.n
                self.parent.append(v)
                self.letter.append(s)
                self.dist.append(d)
                self._edges.extend([-1] * k)
                self._edges[v * k + i] = n
                self._edges[n * k + self._inverse[i]] = v
                nxt.append(n)
        self.outer = nxt


def _tree_mismatches(ball, radius):
    """What differs between a free CayleyBall grown to radius and the
    indexed reference: the generic Ball over the same letter steps."""
    ref = Ball(ball.backend, [(s,) for s in ball.letters])
    for _ in range(radius):
        ref.grow()
    bad = [name for name in ("words", "dist", "_edges", "outer")
           if list(getattr(ball, name)) != getattr(ref, name)]
    if any(ball.vertex_id(w) != ref.vertex_id(w) for w in ref.words):
        bad.append("vertex_id")
    r = len(ball.letters)
    if ball.sphere_sizes() != [1] + [r * (r - 1) ** (j - 1)
                                     for j in range(1, radius + 1)]:
        bad.append("sphere_sizes")
    return bad


@pytest.mark.parametrize("n_gens,radius", [(1, 64), (2, 6), (3, 4)])
def test_free_cayley_ball_grows_as_the_indexed_reference(n_gens, radius):
    # a reduced word is the only geodesic in the free group's Cayley tree:
    # sphere k holds 2n(2n-1)^(k-1) elements
    p = parse_presentation("gen %s\n" % " ".join("abc"[:n_gens]))
    free = default_backend(p)
    ball = CayleyBall(p, free, radius)
    assert ball._index is None
    assert _tree_mismatches(ball, radius) == []
    # the control doubles its spheres' growth: keep it small
    control = min(radius, 4)
    assert _tree_mismatches(_NoSkipBall(p, free, control), control) != []


def _tuple_tree_words(ball, radius):
    """The words of the free Cayley tree as a grower that keeps one tuple
    per vertex builds them: sphere by sphere, words[v] + (s,) for each
    letter s in slot order that does not cancel the last letter of v."""
    words, outer = [()], [0]
    for _ in range(radius):
        nxt = []
        for v in outer:
            wv = words[v]
            for s in ball.letters:
                if not wv or s != -wv[-1]:
                    nxt.append(len(words))
                    words.append(wv + (s,))
        outer = nxt
    return words


def _tree_word_mismatches(ball, radius, seed):
    """What differs between the words a free CayleyBall reads off its
    parent and letter columns and those of the tuple grower: single ids,
    the whole sequence, slices and normal_forms(start)."""
    ref = _tuple_tree_words(ball, radius)
    words, n, bad = ball.words, len(ref), []
    if len(words) != n or list(words) != ref:
        bad.append("list")
    if any(words[v] != w for v, w in enumerate(ref)):
        bad.append("words[v]")
    if any(words[v - n] != ref[v] for v in range(0, n, 97)):
        bad.append("negative index")
    if any(len(w) != ball.dist[v] or free_reduce(w) != w
           or ball.vertex_id(w) != v for v, w in enumerate(words)):
        bad.append("reduced geodesic")
    # runs that start and stop at, next to and between sphere boundaries
    bounds = [0] + [sum(ball.sphere_sizes()[:j]) for j in range(1, radius + 2)]
    ends = sorted({max(0, min(n, b + e)) for b in bounds for e in (-1, 0, 1)})
    rng = random.Random(seed)
    ends += [rng.randrange(n + 1) for _ in range(40)]
    pairs = [(i, j) for i in ends for j in ends if i <= j][::7]
    if any(words[i:j] != ref[i:j] for i, j in pairs):
        bad.append("slice")
    if words[n:] != [] or words[::5] != ref[::5] or words[-3:] != ref[-3:]:
        bad.append("slice ends and steps")
    if any(ball.normal_forms(i) != ref[i:] for i in ends[::3]):
        bad.append("normal_forms")
    return bad


@pytest.mark.parametrize("n_gens,radius", [(2, 8), (3, 5)])
def test_free_cayley_ball_words_match_the_tuple_grower(n_gens, radius):
    p = parse_presentation("gen %s\n" % " ".join("abc"[:n_gens]))
    free = default_backend(p)
    assert _tree_word_mismatches(CayleyBall(p, free, radius), radius,
                                 seed=n_gens) == []
    # negative control: the letter column shifted by one vertex
    shifted = CayleyBall(p, free, radius)
    shifted.letter[1:] = shifted.letter[:-1]
    assert _tree_word_mismatches(shifted, radius, seed=n_gens) != []


def test_free_cayley_ball_r10_spheres_and_outer_words():
    # sphere k of F2 holds 4*3^(k-1) elements, and every outer word finds
    # its own vertex
    free = default_backend(parse_presentation("gen a b\n"))
    ball = CayleyBall(free.presentation, free, 10)
    assert ball.sphere_sizes() == [1] + [4 * 3 ** (k - 1)
                                         for k in range(1, 11)]
    first = ball.outer[0]
    assert ball.outer == list(range(first, ball.n))
    assert all(ball.vertex_id(w) == v for v, w in
               enumerate(ball.words[first:], first))


def test_free_cayley_ball_vertex_id_answers_as_the_index():
    free = default_backend(parse_presentation("gen a b\n"))
    ball = CayleyBall(free.presentation, free, 3)
    ref = _subgroup_ball(free, [(1,), (2,)])
    for _ in range(3):
        ref.grow()
    for w in ball.words:
        # an unreduced spelling finds w's element, also on the outer sphere
        for x in ball.letters:
            assert ball.vertex_id(w + (x, -x)) == ball.vertex_id(w)
            assert ball.vertex_id((x, -x) + w) == ball.vertex_id(w)
    assert ball.vertex_id((1, 2, -2)) == ball.vertex_id((1,)) == 1
    # a word longer than R, and a letter outside the alphabet
    for w in ((1, 1, 1, 1), (1, 2, 1, 2), (3,), (1, 3), (0,)):
        assert ball.vertex_id(w) is None
        assert ref.vertex_id(w) is None


def test_free_cayley_ball_vertex_cap_error_is_unchanged():
    free = default_backend(parse_presentation("gen a b\n"))
    assert CayleyBall(free.presentation, free, 4, vertex_cap=161).n == 161
    with pytest.raises(WindowError,
                       match=r"^vertex cap 161 exceeded at radius 5$"):
        CayleyBall(free.presentation, free, 5, vertex_cap=161)
    with pytest.raises(WindowError,
                       match=r"^vertex cap 100 exceeded at radius 4$"):
        CayleyBall(free.presentation, free, 6, vertex_cap=100)


def test_free_window_build_normalizes_nothing_and_keys_nothing(monkeypatch):
    calls = {"normalize": 0, "index": 0}
    real_normalize = FreeBackend.normalize

    def normalize(self, word):
        calls["normalize"] += 1
        return real_normalize(self, word)

    class CountedIndex(ElementIndex):
        def __init__(self, backend):
            calls["index"] += 1
            super().__init__(backend)

    monkeypatch.setattr(FreeBackend, "normalize", normalize)
    monkeypatch.setattr(jsjforge.geometry, "ElementIndex", CountedIndex)
    p = parse_presentation("gen a b\n")
    space = CuspedSpace(p, default_backend(p), R_max=6, h_max=2)
    space.adjacency()
    assert space.ball.n == 1457
    assert calls == {"normalize": 0, "index": 0}
    # a subgroup ball on the free backend keeps its index
    ball = _subgroup_ball(space.backend, [(1, 2), (2,)])
    ball.grow()
    assert calls["index"] == 1 and calls["normalize"] == 0
    assert ball.vertex_id((1, 2, -2)) is None
    assert calls["normalize"] == 1


@pytest.mark.parametrize("text,R,h", [
    ("gen a\nper P = a\n", 16, 6),
    ("gen a\nper P = a\n", 64, 8),
    ("gen a b\nper A = a\n", 4, 3),
    ("gen a b\nper A = a\nper B = b\n", 3, 3),
])
def test_horoball_edges_and_boundary_match_oracle(text, R, h):
    """Edges and boundary flags against networkx BFS over each peripheral
    graph: offsets at intrinsic distance d > 0 are joined at height k iff
    d <= 2**k, and a horoball vertex is a boundary vertex iff it is at the
    top or an element outside its coset's offsets lies within 2**k."""
    p = parse_presentation(text)
    space = CuspedSpace(p, default_backend(p), R_max=R, h_max=h)
    want = {v: {u for _, u in space.ball.neighbors(v)}
            for v in range(space.ball.n)}
    boundary = {v: space.ball.dist[v] >= R for v in range(space.ball.n)}
    for pi, pg in enumerate(space.pgraphs):
        g = _peripheral_nx(pg)
        for ci, coset in enumerate(space.cosets[pi]):
            offsets = coset["offsets"]
            held = {hj for hj, _ in offsets}
            for oi, (hi, _) in enumerate(offsets):
                near = nx.single_source_shortest_path_length(g, hi,
                                                             cutoff=2 ** h)
                below = space.horo_id(pi, ci, oi, 0)
                for k in range(1, h + 1):
                    v = space.horo_id(pi, ci, oi, k)
                    assert v not in want
                    assert space.describe(v) == (
                        "horoball", HoroVertex(pi, ci, oi, k))
                    want[v] = {below} | {
                        space.horo_id(pi, ci, oj, k)
                        for oj, (hj, _) in enumerate(offsets)
                        if 0 < near.get(hj, 2 ** k + 1) <= 2 ** k}
                    want[below].add(v)
                    boundary[v] = k == h or any(
                        d <= 2 ** k and x not in held
                        for x, d in near.items())
                    below = v
    assert sorted(want) == list(space.vertices())
    for v in space.vertices():
        assert space.neighbors(v) == sorted(want[v]), v
        assert space.boundary_vertex(v) == boundary[v], v


def test_line_boundary_closed_form(line_space):
    # over x at height k: boundary iff k = h or |x| + 2**k > R
    space = line_space
    R, h = space.R_max, space.h_max
    flags = []
    for v in space.vertices():
        x, k = sum(space.group_word(v)), space.height(v)
        want = abs(x) >= R if k == 0 else k == h or abs(x) + 2 ** k > R
        assert space.boundary_vertex(v) == want, (x, k)
        flags.append(want)
    assert 0 < sum(flags) < len(flags)


def test_vertical_ray_and_heights(line_space):
    space = line_space
    ray = space.vertical_ray(0, 0)
    assert [space.height(v) for v in ray] == list(range(space.h_max + 1))
    # consecutive vertices adjacent, and the whole ray a window geodesic
    assert all(b in space.neighbors(a) for a, b in zip(ray, ray[1:]))
    assert distance(space, ray[0], ray[-1]).dist == len(ray) - 1


def test_translate_moves_along_the_line(line_space):
    space = line_space
    v = space.ball.vertex_id((1, 1))
    w = space.translate((1,), v)
    assert space.ball.words[w] is not None
    assert distance(space, v, w).dist == 1


def test_bfs_distances_agree_with_distance(line_space):
    space = line_space
    dist0 = bfs_distances(space, [0])
    for v in list(space.vertices())[:80]:
        assert dist0.get(v) == distance(space, 0, v).dist


LINE = "gen a\nper P = a\n"
GENUS2 = "gen a b c d\nrel abABcdCD\n"
F2 = "gen a b\n"
F2_CUSPED = "gen a b\nper A = a\n"


def _window(text, R, h):
    p = parse_presentation(text)
    return CuspedSpace(p, default_backend(p), R, h)


def _bfs_distances_reference(space, sources, cutoff=None):
    """One FIFO queue, one vertex popped at a time."""
    dist = {}
    queue = deque()
    for s in sources:
        if s not in dist:
            dist[s] = 0
            queue.append(s)
    while queue:
        v = queue.popleft()
        if cutoff is not None and dist[v] >= cutoff:
            continue
        for u in space.neighbors(v):
            if u not in dist:
                dist[u] = dist[v] + 1
                queue.append(u)
    return dist


@pytest.mark.parametrize("text,R,h", [(F2, 5, 0), (LINE, 16, 6),
                                      (GENUS2, 3, 0)])
def test_bfs_distances_matches_queue_reference(text, R, h):
    """The level-list BFS gives the queue BFS's dict, insertion order
    included, from one source and from several with repeats, at
    cutoffs None, 0, 1 and 2."""
    space = _window(text, R, h)
    last = space.n - 1
    for sources in ([0], [last], [3, 0, 3, last, 1, 0]):
        for cutoff in (None, 0, 1, 2):
            got = bfs_distances(space, sources, cutoff)
            want = _bfs_distances_reference(space, sources, cutoff)
            assert list(got.items()) == list(want.items()), (sources, cutoff)


def _nx_window(space):
    g = nx.Graph()
    g.add_nodes_from(space.vertices())
    g.add_edges_from((v, u) for v in space.vertices()
                     for u in space.neighbors(v))
    return g


@pytest.mark.parametrize("text,R,h", [(LINE, 16, 6), (GENUS2, 3, 0),
                                      (F2, 5, 0)])
def test_window_distances_match_networkx(text, R, h):
    space = _window(text, R, h)
    g = _nx_window(space)
    for v in sorted({0, 1, space.ball.n - 1, space.n // 2, space.n - 1}):
        dist = space.distances(v)
        assert dist == nx.single_source_shortest_path_length(g, v)
        assert list(dist) == sorted(dist, key=lambda u: (dist[u], u))
        assert space.distances(v) is dist
    assert list(space.heights) == [
        0 if v < space.ball.n else (v - space.ball.n) % space.h_max + 1
        for v in space.vertices()]


def _reference_path(space, x, y, min_id=False):
    """An x-to-y geodesic from a plain FIFO BFS over the sorted neighbour
    lists: each vertex's parent is the first vertex to reach it, or with
    min_id its smallest-id neighbour one step closer to x."""
    parent, dist = {x: None}, {x: 0}
    queue = deque([x])
    while queue:
        v = queue.popleft()
        for u in sorted(space.neighbors(v)):
            if u not in dist:
                parent[u], dist[u] = v, dist[v] + 1
                queue.append(u)
    if y not in dist:
        return None
    path = [y]
    while path[-1] != x:
        v = path[-1]
        path.append(min(u for u in space.neighbors(v)
                        if dist.get(u) == dist[v] - 1)
                    if min_id else parent[v])
    return path[::-1]


@pytest.mark.parametrize("text,R,h", [(LINE, 16, 6), (GENUS2, 3, 0),
                                      (F2, 5, 0), (F2_CUSPED, 4, 2)])
def test_shortest_path_parent_is_first_to_reach(text, R, h):
    space = _window(text, R, h)
    rng = random.Random(R * 10 + h)
    for _ in range(150):
        x, y = rng.randrange(space.n), rng.randrange(space.n)
        assert shortest_path(space, x, y) == _reference_path(space, x, y)


def test_shortest_path_parent_is_not_min_id():
    # negative control: 340 and 341 are both one step closer to 480 than
    # 342 is, and 341 reaches 342 first
    space = _window(F2_CUSPED, 4, 2)
    assert shortest_path(space, 480, 342)[-2:] == [341, 342]
    assert _reference_path(space, 480, 342, min_id=True)[-2:] == [340, 342]


def test_valence_stats_line(line_space):
    stats = valence_stats(line_space, 0, 1)
    # thick line vertex: two line neighbors + one vertical edge
    assert stats.max_valence == 3
    assert stats.max_ball_size >= 4


def test_window_distance_caveat_at_boundary(line_space):
    space = line_space
    edge = space.ball.vertex_id((1,) * 16)
    assert distance(space, edge, space.ball.vertex_id((1,) * 15)).dist == 1

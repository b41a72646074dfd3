import random
from fractions import Fraction

import networkx as nx
import pytest

from jsjforge.annulus import (_components, annulus_decompose,
                              component_count_stability, horseshoe_decompose,
                              hot_set)
from jsjforge.geometry import CuspedSpace, shortest_path
from jsjforge.words import default_backend, parse_presentation


def _nx_components(space, vertex_set):
    g = nx.Graph()
    g.add_nodes_from(vertex_set)
    for v in vertex_set:
        for u in space.neighbors(v):
            if u in vertex_set:
                g.add_edge(v, u)
    return list(nx.connected_components(g))


def _tid(space, x):
    word = (1,) * x if x >= 0 else (-1,) * (-x)
    return space.ball.vertex_id(word)


def _window(text, R, h):
    p = parse_presentation(text)
    return CuspedSpace(p, default_backend(p), R_max=R, h_max=h)


@pytest.fixture(scope="module")
def f2_small_space():
    return _window("gen a b\n", 5, 0)


@pytest.fixture(scope="module")
def f2_cusp_space():
    """F2 relative to <a>, whose horoballs hang off the lines a^n."""
    return _window("gen a b\nper P = a\n", 5, 3)


def _check_components(space, vertex_set):
    comps = _components(space, vertex_set)
    assert set(comps.values()) == \
        set(map(frozenset, _nx_components(space, vertex_set)))
    assert all(key == min(comp) for key, comp in comps.items())
    assert list(comps) == sorted(comps)
    return comps


def test_annulus_components_match_networkx(line_space, f2_small_space,
                                           f2_cusp_space):
    """The exact partition, each key the least id of its component, the
    keys in ascending order, on seeded random vertex subsets (horoball
    vertices included) of three windows and on annuli around vertical
    rays of the line; the empty set has no components."""
    rng = random.Random(7)
    for space in (line_space, f2_small_space, f2_cusp_space):
        assert _components(space, set()) == {}
        split = False
        for density in (0.1, 0.3, 0.5, 0.7, 0.9):
            for _ in range(4):
                subset = {v for v in range(space.n) if rng.random() < density}
                split = split or len(_check_components(space, subset)) >= 2
        assert split
    assert any(f2_cusp_space.height(v) > 0 for v in range(f2_cusp_space.n))
    space = line_space
    for _ in range(25):
        x = rng.randint(-6, 6)
        gamma = space.vertical_ray(_tid(space, x), 0)
        r = rng.randint(1, 3)
        K = rng.randint(r, r + 2)
        R = rng.randint(K, K + 3)
        dec = annulus_decompose(space, gamma, r, K, R)
        assert dec.components == _check_components(space, dec.N)


def test_annulus_two_sided_for_r_at_least_two(line_space):
    space = line_space
    ray = space.vertical_ray(0, 0)
    dec = annulus_decompose(space, ray, 2, 2, 3)
    for k in range(0, 4):
        up = {v for v in dec.a_vertices if space.height(v) >= k}
        assert len(_components(space, up)) == 2, k


def test_annulus_connected_for_r_one(line_space):
    # at r=1 the two sides of a vertical ray meet through the adjacent
    # horoball vertices, so the annulus is a single component
    space = line_space
    ray = space.vertical_ray(0, 0)
    dec = annulus_decompose(space, ray, 1, 1, 2)
    assert len(_components(space, dec.a_vertices)) == 1


def test_annulus_empty_path_rejected(line_space):
    with pytest.raises(ValueError):
        annulus_decompose(line_space, [], 1, 1, 2)


def _nx_stability(space, gamma, r, K, R, R2):
    """The stability model: the A-components at R and at R2, from
    networkx distances and components, correspond when the map taking
    each R-component to the R2-component holding it is a bijection."""
    g = _nx_window(space)
    dist = nx.multi_source_dijkstra_path_length(g, set(gamma))

    def a_components(outer):
        shell = g.subgraph(v for v, d in dist.items() if r <= d <= outer)
        return [c for c in nx.connected_components(shell)
                if any(dist[v] == K for v in c)]

    small, large = a_components(R), a_components(R2)
    image = {next(i for i, c2 in enumerate(large) if c <= c2)
             for c in small}
    return len(image) == len(small) == len(large)


# the (r, K, R, R2) parameter sets of the line-horoball benchmark
LINE_RAYS = ((2, 2, 3, 4), (2, 2, 3, 5), (2, 2, 4, 5), (2, 2, 4, 6),
             (2, 2, 5, 6), (2, 2, 5, 7))


def test_component_count_stability(line_space, f2_cusp_space):
    """Against the networkx model, both answers on F2 relative to <a>:
    around the path a.b.a the twelve A-components at R=1 become eight at
    R=2, and those eight correspond to the eight at R=3.  Every parameter
    set of the line benchmark is stable."""
    space = f2_cusp_space
    vid = space.ball.vertex_id
    aba = [vid(w) for w in ((), (1,), (1, 2), (1, 2, 1))]
    cases = [(space, aba, (1, 1, 1, 2), False),
             (space, aba, (1, 1, 2, 3), True)]
    for x in (-5, 0, 3):
        ray = line_space.vertical_ray(_tid(line_space, x), 0)
        cases += [(line_space, ray, params, True) for params in LINE_RAYS]
    for sp, gamma, params, want in cases:
        assert _nx_stability(sp, gamma, *params) == want, params
        assert component_count_stability(sp, gamma, *params) == want, params


def _two_map_stability(space, gamma, r, K, R, R2):
    """The stability comparison over two independent decompositions, one
    BFS from gamma each: at R and at R2."""
    d1 = annulus_decompose(space, gamma, r, K, R)
    d2 = annulus_decompose(space, gamma, r, K, R2)
    if len(d1.a_roots) != len(d2.a_roots):
        return False
    image = set()
    for root in d1.a_roots:
        targets = {r2 for r2 in d2.a_roots
                   if d1.components[root] & d2.components[r2]}
        if len(targets) != 1:
            return False
        image |= targets
    return len(image) == len(d1.a_roots)


# (r, K, R, R2), with a rational K and with K > R2, where the one BFS
# is cut off at K
STABILITY_PARAMS = ((1, 1, 1, 2), (1, 1, 2, 3), (1, 2, 2, 4), (2, 2, 3, 5),
                    (1, "3/2", 2, 3), (1, 2, "5/2", "7/2"), (1, 4, 2, 3),
                    (2, 5, 3, 3))


def test_stability_one_map_matches_two(line_space, f2_cusp_space):
    """component_count_stability, which reads both radii off one BFS,
    agrees with two independent annulus_decompose calls compared the
    same way, on rays and paths of the line and of F2 relative to <a>;
    both answers occur."""
    line, f2 = line_space, f2_cusp_space
    vid = f2.ball.vertex_id
    paths = [(line, line.vertical_ray(_tid(line, x), 0)) for x in (-5, 0, 3)]
    paths += [(line, _line_segment(line)),
              (line, shortest_path(line, *_horoball_pair(line, -3, 5, 2)))]
    paths += [(f2, f2.vertical_ray(0, 0)),
              (f2, [vid(w) for w in ((), (1,), (1, 2), (1, 2, 1))]),
              (f2, _f2_path(f2))]
    answers = set()
    for space, gamma in paths:
        for params in STABILITY_PARAMS:
            want = _two_map_stability(space, gamma, *params)
            assert component_count_stability(space, gamma, *params) == want, \
                (gamma, params)
            answers.add(want)
    assert answers == {True, False}


def _nx_window(space):
    g = nx.Graph()
    g.add_nodes_from(space.vertices())
    g.add_edges_from((v, u) for v in space.vertices()
                     for u in space.neighbors(v))
    return g


def _line_segment(space):
    return [_tid(space, x) for x in range(-4, 5)]


def _f2_path(space):
    return [space.ball.vertex_id(w) for w in ((), (1,), (1, 2), (1, 2, 2))]


@pytest.mark.parametrize("window", ["line", "f2"])
@pytest.mark.parametrize("r,K,R", [(1, 1, 2), (2, 3, 4), (1, 2, 2),
                                   ("3/2", "5/2", "7/2")])
def test_annulus_shells_match_fraction_reference(line_space, free2_space,
                                                 window, r, K, R):
    """N and C_K against exact Fraction comparisons on networkx distances
    to the path; a non-integral K has an empty C_K."""
    space = line_space if window == "line" else free2_space
    g = _nx_window(space)
    paths = ([_line_segment(space), space.vertical_ray(_tid(space, 2), 0)]
             if window == "line" else [_f2_path(space)])
    r, K, R = Fraction(r), Fraction(K), Fraction(R)
    for gamma in paths:
        dist = nx.multi_source_dijkstra_path_length(g, set(gamma), cutoff=5)
        dec = annulus_decompose(space, gamma, r, K, R)
        assert dec.N == {v for v, d in dist.items() if r <= d <= R}
        assert dec.CK == {v for v, d in dist.items() if d == K}
        assert dec.N
        assert bool(dec.CK) == (K.denominator == 1)


def test_hot_set_matches_networkx(line_space):
    """C_K /\\ B_T(v) at each thick vertex of a segment, against networkx
    distances from v; some vertex of the segment has a nonempty hot set."""
    space = line_space
    g = _nx_window(space)
    seg = _line_segment(space)
    dec = annulus_decompose(space, seg, 1, 1, 2)
    hot_somewhere = False
    for v in seg:
        near = nx.single_source_shortest_path_length(g, v, cutoff=2)
        want = {u for u in dec.CK if u in near}
        assert hot_set(space, dec.CK, v, 2) == want
        assert hot_set(space, dec.CK, v, "5/2") == want
        hot_somewhere = hot_somewhere or bool(want)
    assert hot_somewhere


def _horoball_pair(space, x0, x1, k):
    ray0 = space.vertical_ray(_tid(space, x0), 0)
    ray1 = space.vertical_ray(_tid(space, x1), 0)
    return ray0[k], ray1[k]


def test_horseshoe_depth_two_connected(line_space):
    a, b = _horoball_pair(line_space, 0, 4, 2)
    assert b in line_space.neighbors(a)   # width 4 at height 2
    dec = horseshoe_decompose(line_space, [a, b], 1, 1, 2)
    assert dec.depth == 2
    assert dec.connected


def test_horseshoe_larger_r_empties(line_space):
    a, b = _horoball_pair(line_space, 0, 4, 2)
    dec = horseshoe_decompose(line_space, [a, b], 2, 2, 2)
    assert dec.empty or not dec.connected


def test_horseshoe_connectivity_needs_depth(line_space):
    # at r=2 a shallow horseshoe stays split by its tails, a deeper one
    # reconnects below the excluded region
    a1, b1 = _horoball_pair(line_space, 0, 2, 1)
    dec1 = horseshoe_decompose(line_space, [a1, b1], 2, 2, 3)
    assert not dec1.connected
    a2, b2 = _horoball_pair(line_space, 0, 2, 2)
    dec2 = horseshoe_decompose(line_space, [a2, b2], 2, 2, 3)
    assert dec2.connected


def test_horseshoe_rejects_bad_segments(line_space):
    a, _ = _horoball_pair(line_space, 0, 2, 1)
    _, b2 = _horoball_pair(line_space, 0, 2, 2)
    with pytest.raises(ValueError):
        horseshoe_decompose(line_space, [a], 1, 1, 2)
    with pytest.raises(ValueError):
        horseshoe_decompose(line_space, [a, b2], 1, 1, 2)
    with pytest.raises(ValueError):
        horseshoe_decompose(line_space, [_tid(line_space, 0),
                                         _tid(line_space, 1)], 1, 1, 2)


def _nx_horseshoe(space, gamma, r, K, R):
    """A' of a horseshoe segment from networkx distances: the components
    of N_{r,R} around the hatted path that meet C_K, less the vertices at
    height >= the endpoint height within R of the tails."""
    g = _nx_window(space)
    depth = space.height(gamma[0])
    tails = set()
    for end in (gamma[0], gamma[-1]):
        col = space.describe(end)[1]
        tails |= {space.horo_id(col.peripheral, col.coset, col.offset, k)
                  for k in range(depth, space.h_max + 1)}
    hat = tails | set(gamma[1:-1])
    r, K, R = Fraction(r), Fraction(K), Fraction(R)
    dist = nx.multi_source_dijkstra_path_length(g, hat)
    near_tails = nx.multi_source_dijkstra_path_length(g, tails, cutoff=R)
    shell = g.subgraph(v for v, d in dist.items() if r <= d <= R)
    a = set().union(*(c for c in nx.connected_components(shell)
                      if any(dist[v] == K for v in c)))
    a -= {v for v in near_tails if space.height(v) >= depth}
    return {frozenset(c) for c in nx.connected_components(g.subgraph(a))}


def _horseshoe_segments(line, f2):
    """Horseshoe segments (endpoints at one positive height) of the line
    and of F2 relative to <a>: an edge (no middle), geodesics within a
    horoball, and paths down to the thick part and back up."""
    def dip(ray0, ray1, k, floor):
        return ray0[k:0:-1] + floor + ray1[1:k + 1]

    segs = [(line, list(_horoball_pair(line, 0, 4, 2))),
            (line, shortest_path(line, *_horoball_pair(line, -3, 5, 2))),
            (line, shortest_path(line, *_horoball_pair(line, -6, 6, 1)))]
    rays = {x: line.vertical_ray(_tid(line, x), 0) for x in (-2, 3)}
    segs.append((line, dip(rays[-2], rays[3], 2,
                           [_tid(line, x) for x in range(-2, 4)])))
    vid = f2.ball.vertex_id
    words = ((), (1,), (1, 1), (2,), (2, 1))
    rays = {w: f2.vertical_ray(vid(w), 0) for w in words}
    segs += [(f2, [rays[()][1], rays[(1,)][1]]),
             (f2, shortest_path(f2, rays[()][2], rays[(1, 1)][2])),
             (f2, dip(rays[()], rays[(2,)], 1, [vid(()), vid((2,))])),
             (f2, dip(rays[(1,)], rays[(2, 1)], 2,
                      [vid(w) for w in ((1,), (), (2,), (2, 1))]))]
    return segs


@pytest.mark.parametrize("r,K,R", [(1, 1, 2), (1, 2, 3), (2, 2, 3),
                                   ("3/2", 2, "7/2")])
def test_horseshoe_matches_networkx(line_space, f2_cusp_space, r, K, R):
    """A' from the pointwise minimum of the tails' and the middle's BFS
    against networkx multi-source distances from the hatted path and
    from the tails, on horseshoe segments of two windows, one of them
    with an empty middle; the keys are least vertex ids.  Both connected
    and disconnected A' occur."""
    sizes = set()
    for space, gamma in _horseshoe_segments(line_space, f2_cusp_space):
        assert space.height(gamma[0]) == space.height(gamma[-1]) > 0
        assert all(u in space.neighbors(v) for v, u in zip(gamma, gamma[1:]))
        dec = horseshoe_decompose(space, gamma, r, K, R)
        assert dec.depth == space.height(gamma[0])
        assert set(dec.components.values()) == \
            _nx_horseshoe(space, gamma, r, K, R), gamma
        assert all(key == min(c) for key, c in dec.components.items())
        sizes.add(len(dec.components))
    assert 1 in sizes and max(sizes) >= 2

import hashlib

import networkx as nx
import pytest

from jsjforge.geometry import (HoroVertex, bfs_distances, build_cusped_space,
                               distance, gromov_product, is_local_geodesic,
                               valence_stats, vertex_label)
from jsjforge.words import parse_presentation, default_backend


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
    ("gen a b\n", 6, 0, 1457,
     "6e074c9f586aab4162baec07c389359909135cf7dd71194df7cfb05584101659"),
    ("gen a b\nper A = a\n", 4, 3, 644,
     "82f54ad16afac26cd6c1faefb147c9c130db15cea8a50d70b3cd6d6db2bc4aba"),
    ("gen a b c d\nrel abABcdCD\n", 3, 1, 457,
     "f061ef1a60ab9b1b206027e5986876898a8f4abc9591070543629e19a039e1fb"),
]


@pytest.mark.parametrize("text,R,h,n,digest", ADJACENCY_GOLDEN)
def test_window_adjacency_golden(text, R, h, n, digest):
    p = parse_presentation(text)
    space = build_cusped_space(p, default_backend(p), R_max=R, h_max=h)
    assert space.n == n
    hsh = hashlib.sha256()
    for v in space.vertices():
        assert space.neighbors(v) is space.adjacency()[v]
        hsh.update(("%d:%s\n" % (v, " ".join(map(str, space.neighbors(v)))))
                   .encode())
    assert hsh.hexdigest() == digest


def _peripheral_nx(pg):
    g = nx.Graph()
    g.add_nodes_from(range(len(pg.elems)))
    g.add_edges_from((i, j) for i, ns in enumerate(pg.adj) for j in ns)
    return g


@pytest.mark.parametrize("text,R,h", [
    ("gen a\nper P = a\n", 16, 6),
    ("gen a b\nper A = a\n", 4, 3),
    ("gen a b\nper A = a\nper B = b\n", 3, 3),
])
def test_horoball_edges_and_boundary_match_oracle(text, R, h):
    """Edges and boundary flags against networkx BFS over each peripheral
    graph: offsets at intrinsic distance d > 0 are joined at height k iff
    d <= 2**k, and a horoball vertex is a boundary vertex iff it is at the
    top or an element outside its coset's offsets lies within 2**k."""
    p = parse_presentation(text)
    space = build_cusped_space(p, default_backend(p), R_max=R, h_max=h)
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
    assert is_local_geodesic(space, ray, 4)


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


def test_gromov_product_tree(free2_space):
    # in a tree the Gromov product is the distance to the median
    space = free2_space
    x = space.ball.vertex_id((1, 1))
    y = space.ball.vertex_id((1, 2))
    assert gromov_product(space, 0, x, y) == 1


def test_valence_stats_line(line_space):
    stats = valence_stats(line_space, 0, 1)
    # thick line vertex: two line neighbors + one vertical edge
    assert stats.max_valence == 3
    assert stats.max_ball_size >= 4


def test_vertex_label_formats(line_space):
    assert isinstance(vertex_label(line_space, 0), str)
    horo = line_space.vertical_ray(0, 0)[1]
    assert isinstance(vertex_label(line_space, horo), str)


def test_window_distance_caveat_at_boundary(line_space):
    space = line_space
    edge = space.ball.vertex_id((1,) * 16)
    assert distance(space, edge, space.ball.vertex_id((1,) * 15)).dist == 1

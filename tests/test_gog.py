import dataclasses
import itertools
import json
import random

import pytest

from jsjforge import gog as G
from jsjforge import words
from jsjforge.words import Presentation, default_backend, parse_presentation

Z = Presentation(("x",), (), ())


def _star(n):
    """Central vertex Z with n dihedral loops attached by index-two edges."""
    g = G.GraphOfGroups()
    c = g.add_vertex(Z)
    for _ in range(n):
        leaf = g.add_vertex(Presentation(("y",), (), ()))
        g.add_edge(c, leaf, Presentation(("e",), (), ()),
                   ((1,),), ((1, 1),))
    return g


def _random_gog(rng, n_v=4, n_e=5):
    g = G.GraphOfGroups()
    vids = [g.add_vertex(Presentation(("x%d" % i,), (), ()))
            for i in range(n_v)]
    for _ in range(n_e):
        a, b = rng.choice(vids), rng.choice(vids)
        g.add_edge(a, b, Presentation(("e",), (), ()),
                   ((rng.choice([1, 2]) * 0 + 1,),), ((1,),))
    return g


# -- validation / serialization ---------------------------------------------

def test_validate_gog_accepts_star():
    g = _star(3)
    probs = G.validate_gog(g)
    assert probs == []


def test_validate_gog_flags_bad_injection():
    g = _star(1)
    e = g.edges[0]
    g.edges[0] = G.GoGEdge(e.source, e.target, e.presentation,
                           ((5,),), e.inj_target)
    probs = G.validate_gog(g)
    assert probs


def test_json_round_trip():
    g = _star(2)
    g2 = G.GraphOfGroups.from_json(g.to_json())
    assert G.canonical_key(g) == G.canonical_key(g2)
    assert g.to_json() == g2.to_json()


def test_to_dot_mentions_all_edges():
    g = _star(3)
    dot = g.to_dot()
    for eid in g.edges:
        assert "e%d" % eid in dot


def test_canonical_key_invariant_under_relabelling():
    g1 = _star(2)
    g2 = G.GraphOfGroups()
    # same shape built in a different vertex order
    l2 = g2.add_vertex(Presentation(("y",), (), ()))
    c = g2.add_vertex(Z)
    l1 = g2.add_vertex(Presentation(("y",), (), ()))
    g2.add_edge(c, l1, Presentation(("e",), (), ()), ((1,),), ((1, 1),))
    g2.add_edge(c, l2, Presentation(("e",), (), ()), ((1,),), ((1, 1),))
    assert G.canonical_key(g1) == G.canonical_key(g2)


# -- collapse ----------------------------------------------------------------

def test_collapse_all_edges_single_vertex():
    g = _star(3)
    c = G.collapse_edges(g, list(g.edges))
    assert len(c.vertices) == 1
    assert len(c.edges) == 0
    v = next(iter(c.vertices.values()))
    # one generator per original vertex generator; one relator per edge
    assert len(v.presentation.generators) == 4
    assert len(v.presentation.relators) == 3


def test_collapse_composition_random():
    rng = random.Random(7)
    for _ in range(10):
        g = _random_gog(rng)
        eids = sorted(g.edges)
        cut = rng.randrange(len(eids) + 1)
        first, second = eids[:cut], eids[cut:]
        lhs = G.collapse_edges(G.collapse_edges(g, first), second)
        rhs = G.collapse_edges(g, eids)
        assert G.canonical_key(lhs) == G.canonical_key(rhs)


def test_collapse_loop_makes_hnn_relator():
    g = G.GraphOfGroups()
    v = g.add_vertex(Z)
    g.add_edge(v, v, Presentation(("e",), (), ()), ((1,),), ((1, 1),))
    c = G.collapse_edges(g, [0])
    p = next(iter(c.vertices.values())).presentation
    assert len(p.generators) == 2      # x plus the stable letter
    assert len(p.relators) == 1


# -- zmax fold ----------------------------------------------------------------

def test_zmax_fold_kth_root():
    # loop on <g> whose injections differ by a cube: the fold absorbs the
    # stable letter and leaves the k-th root relation
    g = G.GraphOfGroups()
    v = g.add_vertex(Presentation(("g", "r"), (), ()))
    g.add_edge(v, v, Presentation(("e",), (), ()), ((1,),), ((2, 2, 2),))
    f, _ = G.zmax_fold(g)
    assert len(f.edges) == 1
    (e,) = f.edges.values()
    # the cube side is retargeted to the root r, the other side to a fresh
    # generator identified with the old image by a k-th root relator
    assert e.inj_target == ((2,),)
    assert e.inj_source == ((3,),)
    p = f.vertices[e.source].presentation
    assert p.generators[-1] == "e0.r"
    assert (3, 3, 3, -1) in p.relators


def test_zmax_fold_idempotent_and_confluent():
    g = _star(2)
    f1, _ = G.zmax_fold(g)
    f2, log2 = G.zmax_fold(f1)
    assert G.canonical_key(f1) == G.canonical_key(f2)
    # processing order must not matter
    g_rev = G.GraphOfGroups()
    for vid in sorted(g.vertices, reverse=True):
        g_rev.add_vertex(g.vertices[vid].presentation, namespace=False,
                         vid=vid)
    for eid in sorted(g.edges, reverse=True):
        e = g.edges[eid]
        g_rev.add_edge(e.source, e.target, e.presentation, e.inj_source,
                       e.inj_target, eid=eid)
    f3, _ = G.zmax_fold(g_rev)
    assert G.canonical_key(f1) == G.canonical_key(f3)


def test_zmax_fold_warns_once():
    # a two-generator edge is skipped in every round, and vertex 0 has no
    # backend once the cube loop is folded; each warning is given once
    g = G.GraphOfGroups()
    a = g.add_vertex(parse_presentation("gen g r\n"))
    b = g.add_vertex(parse_presentation("gen s t\n"))
    g.add_edge(a, b, parse_presentation("gen e f\n"), ((1,), (2,)),
               ((1,), (2,)))
    g.add_edge(a, a, Presentation(("e",), (), ()), ((1,),), ((2, 2, 2),))
    g.add_edge(b, b, Presentation(("e",), (), ()), ((1,),), ((2, 2),))
    f, warnings = G.zmax_fold(g)
    assert len(warnings) == len(set(warnings)) == 3
    assert warnings[0] == "edge 0: non-cyclic, skipped"
    assert [w[:10] for w in warnings[1:]] == ["vertex 0: ", "vertex 1: "]
    assert f.vertices[a].presentation.generators[-1] == "e1.r"
    assert f.vertices[b].presentation.generators[-1] == "e2.r"


# -- tree of cylinders --------------------------------------------------------

def test_tree_of_cylinders_star():
    g = G.GraphOfGroups()
    a = g.add_vertex(Z)
    b = g.add_vertex(Z)
    g.add_edge(a, b, Presentation(("e",), (), ()), ((1,),), ((1, 1),))
    t = G.tree_of_cylinders(g)
    # cylinder vertex between the two originals
    assert len(t.vertices) == 3
    assert len(t.edges) == 2
    cyl = [v for v in t.vertices.values() if v.marking == "vc"]
    assert len(cyl) == 1
    # the cylinder's root is x: x is its first power, y^2 its second
    assert {e.source: e.inj_target for e in t.edges.values()} == {
        a: ((1,),), b: ((1, 1),)}


def test_tree_of_cylinders_bipartite():
    g = _star(2)
    t = G.tree_of_cylinders(g)
    cyl = {vid for vid, v in t.vertices.items() if v.marking == "vc"}
    for e in t.edges.values():
        assert (e.source in cyl) != (e.target in cyl)


# -- internal surface edges ---------------------------------------------------

def _surface_edge(image_at_y):
    # <x> -(x = image_at_y)- <y>, both ends hanging Fuchsian
    g = G.GraphOfGroups()
    x = g.add_vertex(Z, "hangingFuchsian")
    y = g.add_vertex(Presentation(("y",), (), ()), "hangingFuchsian")
    g.add_edge(x, y, Presentation(("e",), (), ()), ((1,),), (image_at_y,))
    return g


@pytest.mark.parametrize("image_at_y,keep", [((1,), {0}), ((1, 1), set())])
def test_internal_surface_edges_certified_root(image_at_y, keep):
    # a certified root answers either way: x = y is maximal at both ends;
    # at y, y^2 = r^m with m = 2 is a definite no, with no warning
    assert G.internal_surface_edges(_surface_edge(image_at_y)) == (keep, [])


def test_internal_surface_edges_unknown_verdict_warns():
    # with no rounds of root extraction neither end is certified
    keep, warnings = G.internal_surface_edges(_surface_edge((1, 1)),
                                              budget=0)
    assert keep == set()
    assert warnings == ["edge 0: endpoint verdict unknown, excluded"]


def _vc_edge(vc_vertex, image):
    # <x> (hanging Fuchsian) -(x = image)- a vertex marked vc
    g = G.GraphOfGroups()
    x = g.add_vertex(Z, "hangingFuchsian")
    v = g.add_vertex(vc_vertex, "vc")
    g.add_edge(x, v, Presentation(("e",), (), ()), ((1,),), (image,))
    return g


DINF = Presentation(("a", "b"), ((1, 1), (2, 2)), ())


@pytest.mark.parametrize("vertex,image,keep", [
    # ab has index two in <a, b | a^2, b^2>: its root is itself (m = 1)
    # and a inverts it; (ab)^2 has index four (m = 2, two generators)
    (DINF, (1, 2), {0}),
    (DINF, (1, 2, 1, 2), set()),
    # in <r>, r^2 has index two (m = 2, one generator), r index one
    (Presentation(("r",), (), ()), (1, 1), {0}),
    (Presentation(("r",), (), ()), (1,), set()),
])
def test_internal_surface_edges_vc_end_reads_edge_root(vertex, image, keep,
                                                      monkeypatch):
    calls = []
    real = G.vc_analyze

    def counted(*args, **kwargs):
        calls.append(args[3])
        return real(*args, **kwargs)

    monkeypatch.setattr(G, "vc_analyze", counted)
    assert G.internal_surface_edges(_vc_edge(vertex, image)) == (keep, [])
    # one root question per end, none of the whole vertex
    assert len(calls) == 2 and all(len(S) == 1 for S in calls)


# -- linear algebra helpers ---------------------------------------------------

@pytest.mark.parametrize("rows,expected", [
    ([[2, 0], [0, 3]], [1, 6]),
    ([[2, 4], [6, 8]], [2, 4]),
    ([[2, 2], [2, 2]], [2]),
    ([[1, 0], [0, 0]], [1]),
])
def test_smith_diagonal(rows, expected, determinantal_divisors):
    """The nonzero Smith invariants, d_k / d_(k-1) from the determinantal
    divisors, of the rows and of their Hermite form."""
    n = len(rows[0])
    for m in (rows, words.hermite_normal_form(rows, n)):
        d = [1] + [x for x in determinantal_divisors(m, n) if x]
        assert [b // a for a, b in zip(d, d[1:])] == expected


def test_abelianization_rank():
    assert G.abelianization_rank(
        parse_presentation("gen a b c d\nrel abABcdCD\n")) == 4
    assert G.abelianization_rank(parse_presentation("gen a\nrel aaaaa\n")) == 0
    assert G.abelianization_rank(parse_presentation("gen a b\n")) == 2


# -- splitting witnesses ------------------------------------------------------

G2 = Presentation(("a", "b", "c", "d"), ((1, 2, -1, -2, 3, 4, -3, -4),), ())
Q1 = Presentation(("a", "b", "c", "d", "z"),
                  ((-5, 1, 2, -1, -2), (-5, 4, 3, -4, -3)), ())
W1 = G.SplitWitness("amalgam", Q1, (1, 2), (3, 4), (5,), None,
                    ((1, 2, -1, -2),), ((4, 3, -4, -3),),
                    ((1,), (2,), (3,), (4,)),
                    ((1,), (2,), (3,), (4,), (1, 2, -1, -2)), ())
QH = Presentation(("u", "v", "t"), ((3, 1, -3, -2),), ())
W2A = G.SplitWitness("hnn", QH, (1, 2), (), (3,), 3, ((1,),), ((2,),),
                     ((1,), (3,)), ((1,), (2, 1, -2), (2,)),
                     ((1, ((1, -2),), ()),))
W2B = G.SplitWitness("hnn", QH, (1, 2), (), (3,), 3, ((1,),), ((2,),),
                     ((1,), (3,)), ((1,), (2, 1, -2), (2,)),
                     ((1, ((2, -1),), ()),))


def _g2_seeds():
    pv = Presentation(("a", "b"), (), ())
    pv2 = Presentation(("c", "d"), (), ())
    pants = Presentation(("u", "v"), (), ())
    seeds = {
        G.seed_key(G2): {"witness": W1.to_json()},
        G.seed_key(pv, (("e", ((1, 2, -1, -2),)),)): {
            "witness": W2A.to_json()},
        G.seed_key(pv2, (("e", ((2, 1, -2, -1),)),)): {
            "witness": W2B.to_json()},
    }
    for order in itertools.permutations([((1, -2),), ((1,),), ((2,),)]):
        seeds[G.seed_key(pants, tuple(("e", ws) for ws in order))] = {
            "circle": True}
        seeds[G.seed_key(
            pants, tuple(("e", ws) for ws in
                         (((2, -1),),) + order[1:]))] = {"circle": True}
    return seeds


def test_verify_split_witness_amalgam():
    be = default_backend(G2)
    ok, report = G.verify_split_witness(G2, be, W1)
    assert ok, report
    assert all(flag for _, flag, _ in report)


def test_verify_split_witness_hnn():
    pv = Presentation(("a", "b"), (), ())
    be = default_backend(pv)
    ok, report = G.verify_split_witness(
        pv, be, W2A, peripherals=(("e", ((1, 2, -1, -2),)),))
    assert ok, report


def test_verify_split_witness_tampered():
    be = default_backend(G2)
    # break the inverse-pair condition
    bad = G.SplitWitness("amalgam", Q1, W1.s1, W1.s2, W1.s3, None,
                         W1.iota1, W1.iota2, W1.fwd,
                         ((2,), (1,), (3,), (4,), (1, 2, -1, -2)), ())
    ok, report = G.verify_split_witness(G2, be, bad)
    assert not ok
    # finite edge group: <z | z^2> style certificate must fail VC-infinite
    bad2 = G.SplitWitness.from_json(W1.to_json())
    bad2 = G.SplitWitness("amalgam",
                          Presentation(Q1.generators,
                                       Q1.relators + ((5, 5),), ()),
                          W1.s1, W1.s2, W1.s3, None, W1.iota1, W1.iota2,
                          W1.fwd, W1.bwd, ())
    ok2, _ = G.verify_split_witness(G2, default_backend(G2), bad2)
    assert not ok2


def test_split_witness_json_round_trip():
    for w in (W1, W2A):
        w2 = G.SplitWitness.from_json(w.to_json())
        assert w2 == w


def test_witness_to_gog_shapes():
    g, sides = G.witness_to_gog(W1)
    assert len(g.vertices) == 2 and len(g.edges) == 1
    gh, sides_h = G.witness_to_gog(W2A)
    assert len(gh.vertices) == 1 and len(gh.edges) == 1
    (e,) = gh.edges.values()
    assert e.source == e.target


def test_split_search_planted():
    be = default_backend(G2)
    out = G.split_search(G2, (), be, budget=50, planted=(W1,))
    assert out.verdict == "found"
    ok, _ = G.verify_split_witness(G2, be, out.feature)
    assert ok


def test_split_search_finds_genus_two_hnn():
    # the input relator abABcdCD already has the HNN shape t w1 t^-1 w2^-1
    be = default_backend(G2)
    out = G.split_search(G2, (), be, budget=12)
    assert out.verdict == "found" and out.stats["candidates"] == 1
    w = out.feature
    assert w.kind == "hnn"
    ok, report = G.verify_split_witness(G2, be, w)
    assert ok, report
    # negative controls: a trivial edge image, and swapped back-images
    trivial_edge = dataclasses.replace(w, iota1=((),))
    assert not G.verify_split_witness(G2, be, trivial_edge)[0]
    swapped = dataclasses.replace(w, bwd=(w.bwd[1], w.bwd[0]) + w.bwd[2:])
    assert not G.verify_split_witness(G2, be, swapped)[0]


def test_decide_split_relative_vc_shortcut():
    p = parse_presentation("gen a\n")
    d = G.decide_split_relative(p)
    assert d.answer == "no-splits"
    assert list(d.trace) == ["Start", "VC?yes"]


def test_decide_split_relative_seeded_witness():
    d = G.decide_split_relative(G2, seeds=_g2_seeds())
    assert d.answer == "splits"
    assert "seed:witness-verified" in d.trace


def test_decide_split_relative_rejected_seed():
    bad = G.SplitWitness("amalgam", Q1, W1.s1, W1.s2, W1.s3, None,
                         W1.iota1, W1.iota2, W1.fwd,
                         ((2,), (1,), (3,), (4,), (1, 2, -1, -2)), ())
    seeds = {G.seed_key(G2): {"witness": bad.to_json()}}
    d = G.decide_split_relative(G2, seeds=seeds, budget=2)
    assert "seed:witness-rejected" in d.trace
    assert d.answer != "splits" or d.reason != "seeded witness"


def test_maximal_splitting_genus_two():
    g, report = G.maximal_splitting(G2, budget=24, seeds=_g2_seeds())
    assert not report["partial"]
    hf = [vid for vid, v in g.vertices.items()
          if v.marking == "hangingFuchsian"]
    assert len(hf) == 2
    loops = [e for e in g.edges.values() if e.source == e.target]
    assert len(loops) == 2
    assert len(g.edges) == 3


def test_assemble_jsj_vc_collapses_surface_edges():
    g, art = G.assemble_jsj(G2, flavor="vc", budget=24, seeds=_g2_seeds())
    assert art["internal_surface_edges"] == [0, 1, 2]
    assert len(g.vertices) == 1 and len(g.edges) == 0
    p = next(iter(g.vertices.values())).presentation
    assert p.generators == ("v3.u", "v3.v", "v4.u", "v4.v", "e1.t", "e2.t")
    assert p.relators == ((1, -2, 3, -4), (5, 1, -5, -2), (6, 3, -6, -4))


def test_assemble_jsj_z_flavor_runs():
    g, art = G.assemble_jsj(G2, flavor="z", budget=24, seeds=_g2_seeds())
    assert art["maximal"] is not None
    assert G.validate_gog(g) == [] or art["warnings"]

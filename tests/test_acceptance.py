"""End-to-end acceptance checks, one test per criterion.

Each criterion gets a single PASS/FAIL line in the terminal summary (see
conftest.pytest_terminal_summary).  Wall-clock budgets are asserted
inside the tests themselves.
"""

import hashlib
import itertools
import json
import random
import subprocess
import sys
import time
from fractions import Fraction

import networkx as nx
import pytest

from jsjforge import algebra as A
from jsjforge import features as F
from jsjforge import gog as G
from jsjforge.annulus import annulus_decompose, component_count_stability
from jsjforge.geometry import CuspedSpace, distance
from jsjforge.hyperbolicity import (certify_delta, check_ddag, ddag_search,
                                    derive_constants, star_pairs_iter)
from jsjforge.words import (Presentation, default_backend,
                            parse_presentation)

from test_geometry import _line_oracle
from test_gog import _g2_seeds, _random_gog, _star, G2, W1, QH


class _clock:
    def __init__(self, budget):
        self.budget = budget

    def __enter__(self):
        self.t0 = time.monotonic()
        return self

    def __exit__(self, *exc):
        if exc[0] is None:
            elapsed = time.monotonic() - self.t0
            assert elapsed < self.budget, \
                "ran %.1fs, budget %.0fs" % (elapsed, self.budget)


def test_criterion_01_horoball_metric_oracle():
    """Horoball BFS distances on (Z, {Z}) match an independent oracle."""
    with _clock(10):
        p = parse_presentation("gen a\nper P = a\n")
        space = CuspedSpace(p, default_backend(p), R_max=64, h_max=8)
        oracle = _line_oracle(64, 8)
        for j in range(6):
            x = space.ball.vertex_id((1,) * 2 ** j)
            got = distance(space, 0, x).dist
            want = nx.shortest_path_length(oracle, ("t", 0), ("t", 2 ** j))
            assert got == want, (j, got, want)
            assert got <= 2 * j + 2


GOLDEN_EXACT = {
    "C": 3, "M": 293, "lam": Fraction(13, 6), "eps": 2, "kd": 586,
    "Kd": 3 * 2 ** 589 + 296, "D": Fraction(231361, 324), "r": 5786,
    "K": 6505, "R": 7224, "T": 8644, "k": 15868,
    "rho": Fraction(1351093, 18), "eta": Fraction(19255093, 108),
    "N_min": Fraction(62623, 2),
}
GOLDEN_HUGE = {
    # name -> (decimal digits, sha256(str)[:16], first 12 digits)
    "N_max": (170141, "9ebad879aa9536aa", "225349773314"),
    "N1": (170143, "9a962967dfa3e9ff", "168683065909"),
    "N2": (170135, "96fa8a5eabb82798", "224907156031"),
    "N3": (170144, "2b72fe166fea423e", "189765412901"),
}


def _decimal(value):
    """str() of an integer longer than the interpreter's default limit on
    int-to-str conversion; the limit is lifted for this call only."""
    old = sys.get_int_max_str_digits()
    sys.set_int_max_str_digits(0)
    try:
        return str(value)
    finally:
        sys.set_int_max_str_digits(old)


def test_criterion_02_constant_table_golden():
    """Exact-arithmetic constant table is bit-identical on re-derivation."""
    with _clock(1):
        t = derive_constants(1, 0, B=3, V=5)
        for name, value in GOLDEN_EXACT.items():
            assert t[name] == value, name
        again = derive_constants(1, 0, B=3, V=5)
        assert again.values == t.values
    # decimal rendering of the astronomically large bounds is test
    # overhead, so it sits outside the derivation clock
    for name, (digits, digest, head) in GOLDEN_HUGE.items():
        s = _decimal(t[name])
        assert len(s) == digits, name
        assert hashlib.sha256(s.encode()).hexdigest()[:16] == digest
        assert s[:12] == head
    assert again.fingerprint() == t.fingerprint()


def test_criterion_03_ddag_negative_control():
    """Free group refutes the avoiding-path condition at every n."""
    with _clock(60):
        p = parse_presentation("gen a b\n")
        be = default_backend(p)
        assert certify_delta(CuspedSpace(p, be, R_max=8, h_max=0),
                             3).delta == 0
        space = CuspedSpace(p, be, R_max=12, h_max=0)
        tab = derive_constants(0, 0, n=4, B=3, V=4,
                               overrides={"kd": 0, "Kd": 1})
        rep = ddag_search(space, 0, tab, n_cap=20)
        assert rep.status == "exhausted"
        assert rep.failures
        checked = 0
        for x, y, m in star_pairs_iter(space, 0, 0, int(tab["M"]),
                                       radius=12, height_bound=0):
            if m < 2 or x == y:
                continue
            ans = check_ddag(space, 0, 0, 20, (x, y), tab)
            assert not ans.ok, (x, y, m)
            checked += 1
        assert checked > 10 ** 6


def _nx_components(space, vertex_set):
    g = nx.Graph()
    g.add_nodes_from(vertex_set)
    for v in vertex_set:
        for u in space.neighbors(v):
            if u in vertex_set:
                g.add_edge(v, u)
    return {frozenset(c) for c in nx.connected_components(g)}


def _spaces():
    p1 = parse_presentation("gen a\nper P = a\n")
    line = CuspedSpace(p1, default_backend(p1), R_max=16, h_max=6)
    p2 = parse_presentation("gen a b\n")
    free2 = CuspedSpace(p2, default_backend(p2), R_max=8, h_max=0)
    return line, free2


def _random_paths(space, tree, rng):
    if tree:
        w = []
        for _ in range(rng.randint(1, 4)):
            s = rng.choice([1, -1, 2, -2])
            if w and w[-1] == -s:
                continue
            w.append(s)
        return [space.ball.vertex_id(tuple(w[:i])) for i in range(len(w) + 1)]
    x = rng.randint(-6, 6)
    word = (1,) * x if x >= 0 else (-1,) * (-x)
    return space.vertical_ray(space.ball.vertex_id(word), 0)


def test_criterion_04_annulus_oracle_equivalence():
    """annulus_decompose agrees with a brute-force component oracle."""
    with _clock(120):
        line, free2 = _spaces()
        rng = random.Random(2024)
        for i in range(50):
            space = line if i % 2 else free2
            gamma = _random_paths(space, space is free2, rng)
            r = rng.randint(1, 3)
            K = rng.randint(r, r + 2)
            R = rng.randint(K, K + 3)
            dec = annulus_decompose(space, gamma, r, K, R)
            want = _nx_components(space, dec.N)
            # partitions compare as sets of frozensets: sorting them
            # orders by inclusion, which depends on iteration order
            got = set(dec.components.values())
            assert got == want, (i, r, K, R)


def test_criterion_05_component_stability():
    """Component counts are stable when the outer radius grows."""
    with _clock(60):
        line, _ = _spaces()

        def tid(x):
            word = (1,) * x if x >= 0 else (-1,) * (-x)
            return line.ball.vertex_id(word)

        rng = random.Random(11)
        for _ in range(20):
            gamma = line.vertical_ray(tid(rng.randint(-5, 5)), 0)
            R = rng.randint(3, 5)
            R2 = R + rng.randint(1, 2)
            assert component_count_stability(line, gamma, 2, 2, R, R2)


F2_OV = dict(r=1, K=1, R=2, T=2, k=0, rho=1, eta=1,
             N_min=2, N_max=4, N1=2, N2=2, N3=2)


def test_criterion_06_cut_pair_round_trip():
    """Cut-pair features verify, extend periodically, and reject tampering."""
    with _clock(120):
        p = parse_presentation("gen a b\n")
        be = default_backend(p)
        space = CuspedSpace(p, be, R_max=8, h_max=0)
        tab = derive_constants(0, 0, n=4, B=3, V=4, overrides=F2_OV)
        out = F.search_cut_pair(space, tab, budget=5000)
        assert out.verdict == "found"
        f = out.feature
        ok, report = F.verify_cut_pair_feature(space, f, tab)
        assert ok, [d for c, o, d in report if not o]
        # the core extends to a verified periodic local geodesic
        deep = CuspedSpace(p, be, R_max=10, h_max=0)
        f10 = F.search_cut_pair(deep, tab, budget=5000).feature
        path = F.build_periodic_path(deep, f10, range(-3, 4))
        assert path is not None
        for u, v in zip(path, path[1:]):
            assert v in deep.neighbors(u)
        # corruption controls: each broken condition flips the verifier
        P1, P2 = f.partition
        v = next(v for v in sorted(P1)
                 if any(u in P1 for u in space.neighbors(v)))
        moved = F.CutPairFeature(f.kind, f.path, f.eta, f.g,
                                 (frozenset(P1 - {v}), frozenset(P2 | {v})),
                                 f.c_index)
        assert not F.verify_cut_pair_feature(space, moved, tab)[0]
        w = sorted(P1)[0]
        dropped = F.CutPairFeature(f.kind, f.path, f.eta, f.g,
                                   (frozenset(P1 - {w}), P2), f.c_index)
        assert not F.verify_cut_pair_feature(space, dropped, tab)[0]


def test_criterion_07_small_orbifold_recognition():
    """Catalogue recognition with replayable witness, and a true negative."""
    with _clock(300):
        pants = parse_presentation("gen a b\nper P = a\nper Q = b\nper R = ab\n")
        be = default_backend(pants)
        out = A.small_orbifold_match(pants, list(pants.peripherals), be,
                                     budget=2)
        assert out.verdict == "found" and out.feature.model.item == 5
        replay = A.verify_hom_pair(
            out.feature.model, default_backend(out.feature.model.presentation),
            pants, be, out.feature.phi, out.feature.psi,
            list(pants.peripherals))
        assert replay is not None

        disc = parse_presentation("gen a b\nrel aaa\nrel bbbbb\nper P = ab\n")
        be2 = default_backend(disc)
        out2 = A.small_orbifold_match(disc, list(disc.peripherals), be2,
                                      budget=2)
        assert out2.verdict == "found" and out2.feature.model.item == 3
        replay2 = A.verify_hom_pair(
            out2.feature.model,
            default_backend(out2.feature.model.presentation),
            disc, be2, out2.feature.phi, out2.feature.psi,
            list(disc.peripherals))
        assert replay2 is not None

        neg = parse_presentation("gen a b\nper P = a\n")
        out3 = A.small_orbifold_match(neg, list(neg.peripherals),
                                      default_backend(neg), budget=2)
        assert out3.verdict == "none-in-budget"


def test_criterion_08_vc_toolkit():
    """Exact virtually-cyclic verdicts."""
    with _clock(60):
        f2 = parse_presentation("gen a b\n")
        be = default_backend(f2)
        rep = A.vc_analyze(f2, be, 0, [(1, 1)])
        assert (rep.verdict, rep.vc_type) == ("vc", "Z")
        assert rep.overgroup[0] == (1,)
        dinf = parse_presentation("gen a b\nrel aa\nrel bb\n")
        rep2 = A.vc_analyze(dinf, default_backend(dinf), 0, [(1,), (2,)],
                            budget=8)
        assert (rep2.verdict, rep2.vc_type) == ("vc", "Dinf")
        rep3 = A.vc_analyze(f2, be, 0, [(1,), (2,)])
        assert rep3.verdict == "not-vc"
        assert rep3.witness is not None
        comm = tuple(be.normalize(
            (1, 1, 2, 2, -1, -1, -2, -2)))
        assert A.order_of(be, comm, 12) is None


def test_criterion_09_graph_of_groups_algebra():
    """Collapse composition, fold confluence, tree of cylinders."""
    with _clock(60):
        rng = random.Random(5)
        for _ in range(20):
            g = _random_gog(rng)
            eids = sorted(g.edges)
            cut = rng.randrange(len(eids) + 1)
            lhs = G.collapse_edges(G.collapse_edges(g, eids[:cut]),
                                   eids[cut:])
            rhs = G.collapse_edges(g, eids)
            assert G.canonical_key(lhs) == G.canonical_key(rhs)
        # kth-root fold and order independence
        g = G.GraphOfGroups()
        v = g.add_vertex(Presentation(("g", "r"), (), ()))
        g.add_edge(v, v, Presentation(("e",), (), ()), ((1,),), ((2, 2, 2),))
        f1, _ = G.zmax_fold(g)
        (e,) = f1.edges.values()
        assert e.inj_target == ((2,),)
        # g = e0.r^3 with e0.r in g's slot: the k-th root replaces g
        assert e.inj_source == ((1,),)
        assert f1.vertices[e.source].presentation.generators == (
            "e0.r", "v0.r")
        assert f1.vertices[e.source].presentation.relators == ()
        star = _star(2)
        fa, _ = G.zmax_fold(star)
        rev = G.GraphOfGroups()
        for vid in sorted(star.vertices, reverse=True):
            rev.add_vertex(star.vertices[vid].presentation, namespace=False,
                           vid=vid)
        for eid in sorted(star.edges, reverse=True):
            ee = star.edges[eid]
            rev.add_edge(ee.source, ee.target, ee.presentation,
                         ee.inj_source, ee.inj_target, eid=eid)
        fb, _ = G.zmax_fold(rev)
        assert G.canonical_key(fa) == G.canonical_key(fb)
        # amalgam over an index-two inclusion: bipartite star through the
        # maximal-VC cylinder vertex
        amal = G.GraphOfGroups()
        a = amal.add_vertex(Presentation(("x",), (), ()))
        b = amal.add_vertex(Presentation(("y",), (), ()))
        amal.add_edge(a, b, Presentation(("e",), (), ()),
                      ((1,),), ((1, 1),))
        t = G.tree_of_cylinders(amal)
        cyl = [vid for vid, vv in t.vertices.items() if vv.marking == "vc"]
        assert len(cyl) == 1
        assert len(t.vertices) == 3 and len(t.edges) == 2
        for ee in t.edges.values():
            assert (ee.source in cyl) != (ee.target in cyl)


def test_criterion_10_orchestrator_traces(tmp_path, source_cli):
    """Decision traces, seeded golden pipeline, honest window verdicts."""
    with _clock(120):
        z = parse_presentation("gen a\n")
        dec = G.decide_split_relative(z)
        assert dec.answer == "no-splits"
        assert list(dec.trace) == ["Start", "VC?yes"]

        g, art = G.assemble_jsj(G2, flavor="vc", budget=24,
                                seeds=_g2_seeds())
        assert len(g.vertices) == 1 and len(g.edges) == 0
        p = next(iter(g.vertices.values())).presentation
        assert p.generators == ("v3.u", "v3.v", "v4.u", "v4.v",
                                "e1.t", "e2.t")
        assert p.relators == ((1, -2, 3, -4), (5, 1, -5, -2),
                              (6, 3, -6, -4))

        # full-size constants, no seeds and no split-search budget (with
        # any budget the search finds genus 2's HNN splitting first): the
        # truncated window must be reported as insufficient (exit code
        # 4), never a false decision
        grp = tmp_path / "g2.grp"
        grp.write_text("gen a b c d\nrel abABcdCD\n")
        const = tmp_path / "paper.const"
        const.write_text("delta = 1\nB = 3\nV = 5\n")
        argv, env = source_cli
        proc = subprocess.run(
            argv + ["split", str(grp), "--const", str(const),
                    "--window", "3,1", "--budget", "0"],
            capture_output=True, text=True, timeout=110, env=env)
        assert proc.returncode == 4, proc.stdout + proc.stderr
        assert "answer: splits" not in proc.stdout
        assert "answer: no-splits" not in proc.stdout

import hashlib
from fractions import Fraction

import pytest

from jsjforge import features as F
from jsjforge.annulus import shells
from jsjforge.geometry import CuspedSpace, bfs_distances
from jsjforge.hyperbolicity import ceil_frac, derive_constants, floor_frac
from jsjforge.words import concat, default_backend, inverse_word, \
    parse_presentation


def _table(**ov):
    return derive_constants(0, 0, n=4, B=3, V=4, overrides=ov)


F2_OV = dict(r=1, K=1, R=2, T=2, k=0, rho=1, eta=1,
             N_min=2, N_max=4, N1=2, N2=2, N3=2)
LINE_OV = dict(r=2, K=2, R=3, T=2, k=2, rho=1, eta=1,
               N_min=2, N_max=6, N1=2, N2=2, N3=6)
HS_OV = dict(r=1, K=1, R=2, T=2, k=2, rho=1, eta=1,
             N_min=2, N_max=6, N1=0, N2=0, N3=8)
CUT_HS_OV = dict(r=1, K=1, R=2, T=2, k=1, rho=1, eta=1, N_min=2, N_max=8)
NONCUT_GUARD_OV = dict(F2_OV, N1=20, N2=20)
CUT_GUARD_OV = dict(r=1, K=1, R=2, T=2, k=1, rho=1, eta=1,
                    N_min=40, N_max=41)


def test_degenerate_parameters_rejected(free2_space):
    with pytest.raises(ValueError):
        F.search_cut_pair(free2_space, _table(K=0), budget=10)
    with pytest.raises(ValueError):
        F.search_cut_pair(free2_space, _table(r=0), budget=10)


def test_detect_cut_point_line(line_space):
    out = F.detect_cut_point(line_space, _table(**LINE_OV))
    assert out.verdict == "found"
    assert out.feature["components"] >= 2


def test_search_cut_pair_free_group_found_and_verified(free2_space):
    tab = _table(**F2_OV)
    out = F.search_cut_pair(free2_space, tab, budget=5000)
    assert out.verdict == "found"
    ok, report = F.verify_cut_pair_feature(free2_space, out.feature, tab)
    assert ok, [d for c, o, d in report if not o]
    assert all(o for c, o, d in report)


def test_cut_pair_serialization_round_trip(free2_space):
    tab = _table(**F2_OV)
    f = F.search_cut_pair(free2_space, tab, budget=5000).feature
    f2 = F.parse_feature(F.serialize_feature(f))
    ok, _ = F.verify_cut_pair_feature(free2_space, f2, tab)
    assert ok


def test_cut_pair_periodic_path(free2):
    # m = -3..3 translates of the core need a window deep enough to hold
    # seven copies of the period
    from jsjforge.geometry import CuspedSpace, bfs_distances
    p, be = free2
    space = CuspedSpace(p, be, R_max=10, h_max=0)
    tab = _table(**F2_OV)
    f = F.search_cut_pair(space, tab, budget=5000).feature
    path = F.build_periodic_path(space, f, range(-3, 4))
    assert path is not None
    # consecutive vertices adjacent
    for u, v in zip(path, path[1:]):
        assert v in space.neighbors(u)


def test_cut_pair_corruption_rejected(free2_space):
    tab = _table(**F2_OV)
    f = F.search_cut_pair(free2_space, tab, budget=5000).feature
    P1, P2 = f.partition
    # move a vertex that has a same-side neighbour: creates crossing edges
    v = next(v for v in sorted(P1)
             if any(u in P1 for u in free2_space.neighbors(v)))
    bad = F.CutPairFeature(f.kind, f.path, f.eta, f.g,
                           (frozenset(P1 - {v}), frozenset(P2 | {v})),
                           f.c_index)
    ok, report = F.verify_cut_pair_feature(free2_space, bad, tab)
    assert not ok
    # drop a vertex entirely: partition no longer covers the ground set
    w = sorted(P1)[0]
    bad2 = F.CutPairFeature(f.kind, f.path, f.eta, f.g,
                            (frozenset(P1 - {w}), P2), f.c_index)
    assert not F.verify_cut_pair_feature(free2_space, bad2, tab)[0]


def test_noncut_horseshoe_found_on_line(line_space):
    tab = _table(**HS_OV)
    out = F.search_noncut_pair(line_space, tab, budget=500000)
    assert out.verdict == "found"
    assert out.feature.kind == "horseshoe"
    ok, report = F.verify_noncut_feature(line_space, out.feature, tab)
    assert ok, [d for c, o, d in report if not o]


def test_noncut_search_window_guard(free2_space):
    # bounds exceed the window and no feature exists inside it
    tab = _table(**NONCUT_GUARD_OV)
    out = F.search_noncut_pair(free2_space, tab, budget=10**7)
    assert out.verdict == "window-insufficient"


def test_noncut_none_at_full_bound_in_tree(free2_space):
    tab = _table(**F2_OV)
    out = F.search_noncut_pair(free2_space, tab, budget=500000)
    assert out.verdict == "none-at-full-bound"


def test_cut_pair_window_guard(line_space):
    tab = _table(**CUT_GUARD_OV)
    out = F.search_cut_pair(line_space, tab, budget=100)
    assert out.verdict == "window-insufficient"


def test_decide_circle_tree_says_no(free2_space):
    tab = _table(kd=0, Kd=1, **{k: v for k, v in F2_OV.items()})
    verdict = F.decide_circle(free2_space, tab, budget=200, n_cap=6)
    assert verdict.answer in ("no", "exhausted")
    assert verdict.trace


TABLES = {"F2": F2_OV, "LINE": LINE_OV, "HS": HS_OV, "CUT_HS": CUT_HS_OV,
          "NONCUT_GUARD": NONCUT_GUARD_OV, "CUT_GUARD": CUT_GUARD_OV}

# (window, search, table, budget, verdict, stats, sha256 prefix of the
# serialized feature).  The F2 non-cut search sees 20,736 candidates in
# full, so budgets 0, 1, 20735, 20736 and 20737 pin every stop reason;
# the line cut-pair search sees 908, and with table CUT_HS it finds a
# horseshoe as candidate 751 after 750 periodic ones.  A spent budget
# outranks a window cut (NONCUT_GUARD at budget 1000).
OUTCOME_GOLDEN = [
    ("f2", "cut", "F2", 5000, "found",
     {"periodic_candidates": 1, "horseshoe_candidates": 0, "verified": True},
     "dd5247a9302226a0"),
    ("f2", "cut", "F2", 0, "none-in-budget",
     {"periodic_candidates": 0, "horseshoe_candidates": 0}, None),
    ("f2", "noncut", "F2", 500000, "none-at-full-bound",
     {"triple_candidates": 20736, "horseshoe_candidates": 0}, None),
    ("f2", "noncut", "F2", 0, "none-in-budget",
     {"triple_candidates": 0, "horseshoe_candidates": 0}, None),
    ("f2", "noncut", "F2", 1, "none-in-budget",
     {"triple_candidates": 1, "horseshoe_candidates": 0}, None),
    ("f2", "noncut", "F2", 20735, "none-in-budget",
     {"triple_candidates": 20735, "horseshoe_candidates": 0}, None),
    ("f2", "noncut", "F2", 20736, "none-in-budget",
     {"triple_candidates": 20736, "horseshoe_candidates": 0}, None),
    ("f2", "noncut", "F2", 20737, "none-at-full-bound",
     {"triple_candidates": 20736, "horseshoe_candidates": 0}, None),
    ("line", "cut", "LINE", 5000, "none-at-full-bound",
     {"periodic_candidates": 908, "horseshoe_candidates": 0}, None),
    ("line", "cut", "LINE", 907, "none-in-budget",
     {"periodic_candidates": 907, "horseshoe_candidates": 0}, None),
    ("line", "cut", "LINE", 908, "none-in-budget",
     {"periodic_candidates": 908, "horseshoe_candidates": 0}, None),
    ("line", "cut", "LINE", 909, "none-at-full-bound",
     {"periodic_candidates": 908, "horseshoe_candidates": 0}, None),
    ("line", "noncut", "LINE", 500000, "found",
     {"triple_candidates": 1, "horseshoe_candidates": 0}, "887fb7d11d4429f2"),
    ("line", "noncut", "HS", 500000, "found",
     {"triple_candidates": 0, "horseshoe_candidates": 1}, "b26640cfaea52c71"),
    ("line", "noncut", "HS", 0, "none-in-budget",
     {"triple_candidates": 0, "horseshoe_candidates": 0}, None),
    ("line", "cut", "CUT_HS", 5000, "found",
     {"periodic_candidates": 750, "horseshoe_candidates": 1},
     "0c72b6ef9c311df6"),
    ("line", "cut", "CUT_HS", 750, "none-in-budget",
     {"periodic_candidates": 750, "horseshoe_candidates": 0}, None),
    ("line", "cut", "CUT_HS", 751, "found",
     {"periodic_candidates": 750, "horseshoe_candidates": 1},
     "0c72b6ef9c311df6"),
    ("f2", "noncut", "NONCUT_GUARD", 10**7, "window-insufficient",
     {"triple_candidates": 108216, "horseshoe_candidates": 0}, None),
    ("f2", "noncut", "NONCUT_GUARD", 1000, "none-in-budget",
     {"triple_candidates": 1000, "horseshoe_candidates": 0}, None),
    ("line", "cut", "CUT_GUARD", 100, "window-insufficient",
     {"required_radius": 42, "window": 16}, None),
]


@pytest.mark.parametrize(
    "window,search,table,budget,verdict,stats,digest", OUTCOME_GOLDEN,
    ids=["-".join(map(str, case[:4])) for case in OUTCOME_GOLDEN])
def test_search_outcome_golden(request, window, search, table, budget,
                               verdict, stats, digest):
    space = request.getfixturevalue({"f2": "free2_space",
                                     "line": "line_space"}[window])
    run = {"cut": F.search_cut_pair, "noncut": F.search_noncut_pair}[search]
    out = run(space, _table(**TABLES[table]), budget=budget)
    got = hashlib.sha256(F.serialize_feature(out.feature).encode()) \
        .hexdigest()[:16] if out.feature is not None else None
    assert (out.verdict, out.stats, got) == (verdict, stats, digest)


@pytest.mark.parametrize("n3", [4, 6])
def test_noncut_horseshoe_rejected_find_does_not_end_search(line_space, n3):
    # the first connected horseshoe from heights >= k starts at height 2,
    # which the verifier rejects; a height-1 one (the 111th shape at
    # N3=4) is accepted, so the boundary is not reported a circle
    tab = _table(r=1, K=1, R=2, T=2, k=1, rho=1, eta=1,
                 N_min=2, N_max=6, N1=0, N2=0, N3=n3)
    out = F.search_noncut_pair(line_space, tab, budget=500000)
    assert out.verdict == "found"
    assert F.verify_noncut_feature(line_space, out.feature, tab)[0]
    assert all(line_space.height(v) <= 1 for v in out.feature.path)


def _geodesic_paths_reference(space, length, depth_bound):
    """The per-length walk: its own BFS from the base, cut off at length,
    and every geodesic path of that length in the depth-bounded part."""
    dist_base = bfs_distances(space, [0], cutoff=length)
    stack = [(0,)]
    while stack:
        path = stack.pop()
        if len(path) == length + 1:
            yield path
            continue
        for u in reversed(space.neighbors(path[-1])):
            if space.height(u) > depth_bound:
                continue
            if dist_base.get(u, -1) != len(path):
                continue
            stack.append(path + (u,))


def _translation_reference(space, seg, eta):
    """g = gamma(b) gamma(a)^-1 when g.gamma(a+t) = gamma(b+t) for every
    t in [-eta, eta], by translate alone."""
    a, b = eta, len(seg) - 1 - eta
    g = concat(space.group_word(seg[b]),
               inverse_word(space.group_word(seg[a])))
    if all(space.translate(g, seg[a + t]) == seg[b + t]
           for t in range(-eta, eta + 1)):
        return g
    return None


# (presentation, R, h, depth bound): F2; genus 2 on its Dehn backend; the
# torsion group <a, b | a^3, b^2>, where the b and B slots coincide; and
# the line's cusped space, whose segments cross horoball vertices
SCREEN_WINDOWS = {
    "f2": ("gen a b\n", 5, 0, 0),
    "genus2": ("gen a b c d\nrel abABcdCD\n", 3, 0, 0),
    "torsion": ("gen a b\nrel aaa\nrel bb\n", 6, 0, 0),
    "line": ("gen a\nper P = a\n", 16, 4, 2),
}


@pytest.mark.parametrize("window", sorted(SCREEN_WINDOWS))
def test_segment_translation_matches_translate_reference(window):
    text, R, h, depth = SCREEN_WINDOWS[window]
    p = parse_presentation(text)
    space = CuspedSpace(p, default_backend(p), R, h)
    accepted = rejected = horo = 0
    for length in range(3, 7):
        for seg in _geodesic_paths_reference(space, length, depth):
            horo += max(seg) >= space.ball.n
            for eta in (0, 1):
                want = _translation_reference(space, seg, eta)
                assert F._segment_translation(space, seg, eta) == want, \
                    (seg, eta)
                accepted += want is not None
                rejected += want is None
    assert accepted and rejected
    assert (horo > 0) == (window == "line")


def _triple_candidate_reference(space, path, lengths, eta, first):
    """One triple cut from a path of span l1 + l2 + l3 plus the margins."""
    l1, l2, _ = lengths
    b1 = eta + l1
    b2 = b1 + l2
    segs = (tuple(path[:b1 + eta + 1]),
            tuple(path[b1 - eta:b2 + eta + 1]),
            tuple(path[b2 - eta:]))
    if segs[0] not in first:
        first[segs[0]] = F._segment_translation(space, segs[0], eta)
    g1 = first[segs[0]]
    if g1 is None:
        return None
    g3 = F._segment_translation(space, segs[2], eta)
    if g3 is None:
        return None
    c = next((i for i, v in enumerate(segs[1])
              if eta <= i <= len(segs[1]) - 1 - eta
              and space.height(v) == 0), None)
    if c is None:
        return None
    return F.NonCutFeature("triple", segs, (eta, eta, eta), g1, g3, c)


def _noncut_totals(space, tab):
    """eta, the depth bound k, and every (lengths, total) of the
    non-cut search's bounds, in lengths-major order."""
    eta = ceil_frac(tab["eta"])
    n1 = min(floor_frac(tab["N1"]), space.R_max)
    n2 = min(floor_frac(tab["N2"]), space.R_max)
    totals = [((l1, l2, l3), l1 + l2 + l3 + 2 * eta)
              for l1 in range(1, n1 + 1) for l2 in range(1, n2 + 1)
              for l3 in range(1, n1 + 1)]
    return eta, ceil_frac(tab["k"]), totals


# the screen windows, and F2 at R=7, where the later lengths of a
# total build features of their own, so a replay off by one shows
STREAM_WINDOWS = dict(SCREEN_WINDOWS, **{"f2-r7": ("gen a b\n", 7, 0, 0)})


def test_triple_stream_matches_per_lengths_reference():
    """The one-walk-per-total triple stream, its runs of n Nones
    expanded, yields the same (key, feature) sequence as one BFS and one
    walk per lengths, on each stream window under three tables.  Built
    features, Nones, features replayed from a shared walk and lengths cut
    by the window all occur."""
    seen = {"feature": 0, "none": 0, "replayed": 0, "window_cut": 0}
    for window in sorted(STREAM_WINDOWS):
        text, R, h, _ = STREAM_WINDOWS[window]
        p = parse_presentation(text)
        space = CuspedSpace(p, default_backend(p), R, h)
        for table in ("F2", "LINE", "NONCUT_GUARD"):
            eta, k, totals = _noncut_totals(space, _table(**TABLES[table]))
            kept = [(m, t) for m, t in totals if t <= space.R_max]
            first, walked, want = {}, set(), []
            for m, t in kept:
                block = [("triple_candidates", _triple_candidate_reference(
                    space, path, m, eta, first))
                    for path in _geodesic_paths_reference(space, t, k)]
                if t in walked:
                    seen["replayed"] += sum(f is not None for _, f in block)
                walked.add(t)
                want += block
            got = [(key, f) for key, f, n
                   in F._triple_stream(space, kept, eta, k)
                   for _ in range(n)]
            assert got == want, (window, table)
            seen["feature"] += sum(f is not None for _, f in got)
            seen["none"] += sum(f is None for _, f in got)
            seen["window_cut"] += len(totals) > len(kept)
    assert all(seen.values()), seen


def _built_triples(space, tab):
    """Every feature the triple stream builds under a table."""
    eta, k, totals = _noncut_totals(space, tab)
    kept = [(m, t) for m, t in totals if t <= space.R_max]
    return [f for _, f, _ in F._triple_stream(space, kept, eta, k)
            if f is not None]


def test_condition_f_screen_rejects_only_what_the_verifier_rejects(
        free2_space, line_space):
    """The (f) screen is exact: on F2 R=8, the line and the torsion
    window, a built triple it rejects also fails verify_noncut_feature,
    and one it passes gets its (f) verdict from the verifier's report."""
    text, R, h, _ = SCREEN_WINDOWS["torsion"]
    p = parse_presentation(text)
    torsion = CuspedSpace(p, default_backend(p), R, h)
    passed = rejected = 0
    for space in (free2_space, line_space, torsion):
        for table in ("F2", "LINE"):
            tab = _table(**TABLES[table])
            screen = F._condition_f_screen(space, tab)
            for f in _built_triples(space, tab):
                ok, report = F.verify_noncut_feature(space, f, tab)
                assert screen(f) == dict((c, o) for c, o, _ in report)["f"]
                if screen(f):
                    passed += 1
                else:
                    assert not ok, f
                    rejected += 1
    assert passed and rejected, (passed, rejected)


def test_condition_f_judged_once_per_middle_segment(free2_space,
                                                    monkeypatch):
    """On F2 R=8 the 256 built triples hold 192 distinct (middle segment,
    thick parameter) pairs: (f) is judged 192 times, and since every
    triple fails it, the verifier replays none."""
    calls = {"f": 0, "verify": 0}
    real_f, real_verify = F._noncut_condition_f, F.verify_noncut_feature

    def count(name, fn):
        def counted(*args, **kwargs):
            calls[name] += 1
            return fn(*args, **kwargs)
        return counted

    monkeypatch.setattr(F, "_noncut_condition_f", count("f", real_f))
    monkeypatch.setattr(F, "verify_noncut_feature",
                        count("verify", real_verify))
    tab = _table(**F2_OV)
    assert len(_built_triples(free2_space, tab)) == 256
    out = F.search_noncut_pair(free2_space, tab, budget=500000)
    assert out.verdict == "none-at-full-bound"
    assert out.stats["triple_candidates"] == 20736
    assert calls == {"f": 192, "verify": 0}


def test_inverted_condition_f_screen_loses_the_line_find(line_space,
                                                        monkeypatch):
    """Negative control: with the screen's answer inverted, the LINE
    table's triple, found as candidate 1, is no longer found."""
    tab = _table(**LINE_OV)
    out = F.search_noncut_pair(line_space, tab, budget=500000)
    assert (out.verdict, out.stats["triple_candidates"],
            out.feature.kind) == ("found", 1, "triple")
    real = F._condition_f_screen

    def inverted(space, table):
        passes = real(space, table)
        return lambda f: not passes(f)

    monkeypatch.setattr(F, "_condition_f_screen", inverted)
    lost = F.search_noncut_pair(line_space, tab, budget=500000)
    assert lost.feature != out.feature
    assert lost.stats["triple_candidates"] > 1


def test_runs_spend_the_budget_exactly(free2_space):
    """The F2 stream comes mostly as counted runs of Nones, and a run
    that outlasts the budget counts only up to it."""
    tab = _table(**F2_OV)
    eta, k, totals = _noncut_totals(free2_space, tab)
    items = list(F._triple_stream(free2_space, totals, eta, k))
    assert sum(n for _, _, n in items) == 20736
    assert len(items) < 20736 // 8
    for budget in (2, 100, 12345):
        out = F.search_noncut_pair(free2_space, tab, budget=budget)
        assert (out.verdict, out.stats["triple_candidates"]) == \
            ("none-in-budget", budget)


def test_small_budget_judges_only_the_paths_it_spends(monkeypatch):
    """The torsion window builds no triple under F2's table: of its 448
    candidates most are counted, and the walked ones are judged 192
    times in all.  A budget that ends among walked paths judges only
    those it spent, each for the at most 3 lengths of its total, not the
    rest of the total."""
    text, R, h, _ = SCREEN_WINDOWS["torsion"]
    p = parse_presentation(text)
    space = CuspedSpace(p, default_backend(p), R, h)
    tab = _table(**F2_OV)
    eta, k, totals = _noncut_totals(space, tab)
    items = list(F._triple_stream(
        space, [(m, t) for m, t in totals if t <= R], eta, k))
    assert all(f is None for _, f, _ in items)
    calls = []
    real = F._triple_candidate
    monkeypatch.setattr(F, "_triple_candidate",
                        lambda *args: calls.append(1) or real(*args))
    for budget in (65, 70, 100, 449):
        walked = spent = 0
        for _, _, n in items:
            if spent >= budget:
                break
            walked += n == 1
            spent += n
        del calls[:]
        out = F.search_noncut_pair(space, tab, budget=budget)
        assert out.stats["triple_candidates"] == min(budget, 448)
        assert 0 < len(calls) <= 3 * walked < 192 or budget == 449, \
            (budget, len(calls), walked)
    assert len(calls) == 192


def test_start_scans_skipped_when_no_start_can_exist(free2_space,
                                                     monkeypatch):
    """F2 R=8 has no horoballs: the non-cut search at k = 0 and the
    cut-pair search at any k scan no vertex for horseshoe starts."""
    def no_scan():
        raise AssertionError("scanned the window for horseshoe starts")

    monkeypatch.setattr(free2_space, "vertices", no_scan)
    # N_max below N_min leaves the cut-pair search no periodic candidate
    for search, table in ((F.search_noncut_pair, F2_OV),
                          (F.search_cut_pair, dict(F2_OV, N_max=1))):
        out = search(free2_space, _table(**table), budget=500000)
        assert out.verdict == "none-at-full-bound", search


@pytest.mark.parametrize("n1,n2,verdict", [
    (0, 7, "window-insufficient"),     # 0 + 7 + 2 eta > R = 8
    (0, 6, "none-at-full-bound"),
    (-2, 8, "none-at-full-bound"),     # N2 = R exactly: the sum is 8
    (-2, None, "window-insufficient"),  # N2 by formula, far past R
])
def test_noncut_window_cut_by_the_n_bounds(free2_space, n1, n2, verdict):
    """floor(N1) + floor(N2) + 2 eta > R cuts the search even when no
    span lengths are left, and a sum of exactly R does not."""
    ov = dict(F2_OV, N1=n1, N2=n2)
    if n2 is None:
        del ov["N2"]
    out = F.search_noncut_pair(free2_space, _table(**ov), budget=10**6)
    assert (out.verdict, out.stats["triple_candidates"]) == (verdict, 0)


def _ground_set_reference(space, path, a, b, r, K, R):
    """X and C_K with exact Fraction comparisons on whole-window
    distances to gamma and to gamma[a, b]."""
    r, K, R = Fraction(r), Fraction(K), Fraction(R)
    to_path = {}
    to_mid = {}
    for i, p in enumerate(path):
        for v, d in bfs_distances(space, [p]).items():
            to_path[v] = min(d, to_path.get(v, d))
            if a <= i <= b:
                to_mid[v] = min(d, to_mid.get(v, d))
    X = {v for v, d in to_path.items()
         if r <= d <= R and to_mid.get(v, R + 1) <= R}
    CK = {v for v, d in to_path.items() if d == K}
    return X, CK


@pytest.mark.parametrize("r,K,R", [(1, 1, 2), ("3/2", "5/2", "7/2")])
def test_cutpair_ground_set_integer_bounds(free2_space, r, K, R):
    paths = list(_geodesic_paths_reference(free2_space, 4, 0))[::12]
    for path in paths:
        got = shells(free2_space, path, 1, 3, r, K, R)
        assert got == _ground_set_reference(free2_space, path, 1, 3, r, K, R)
        assert got[0]
        assert bool(got[1]) == (Fraction(K).denominator == 1)

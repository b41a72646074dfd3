import functools
import itertools
import math
import random
from fractions import Fraction

import networkx as nx
import pytest

from jsjforge import hyperbolicity as hyp
from jsjforge.geometry import (CuspedSpace, ParentBFS, bfs_parents,
                               shortest_path)
from jsjforge.hyperbolicity import (ceil_frac, certify_delta, check_ddag,
                                    ddag_search, derive_constants, floor_frac,
                                    log2_upper, parse_const_file, round_up,
                                    star_pairs_iter)
from jsjforge.words import default_backend, parse_presentation


@pytest.mark.parametrize("x", [Fraction(7, 2), Fraction(-7, 2), Fraction(4),
                               Fraction(0), Fraction(1, 3), Fraction(-1, 3)])
def test_floor_ceil_frac_oracle(x):
    assert floor_frac(x) == math.floor(x)
    assert ceil_frac(x) == math.ceil(x)


def test_certify_delta_tree_is_zero(free2_space):
    cert = certify_delta(free2_space, 3)
    assert cert.delta == 0
    assert cert.triangles > 0


def test_certify_delta_line_with_horoball(line_pair):
    from jsjforge.geometry import CuspedSpace
    p, be = line_pair
    space = CuspedSpace(p, be, R_max=6, h_max=2)
    cert = certify_delta(space, 3)
    assert cert.delta <= 2


def test_constant_chain_relations():
    for delta in (0, 1, 2):
        t = derive_constants(delta, 0, B=3, V=5)
        assert t["C"] == 3 * delta
        assert t["M"] == 290 * delta + 3
        assert t["lam"] == Fraction(12 * delta + 1, 5 * delta + 1)
        assert t["eps"] == 2 * delta
        assert t["kd"] == 2 * t["M"]
        assert t["Kd"] == 3 * 2 ** (2 * t["M"] + 3) + t["M"] + 3
        assert t["K"] >= t["r"] + t["D"] + delta + t["C"]
        assert t["k"] >= 8 * delta + 1
        assert t["N_min"] <= t["N_max"]
        assert t["rho"] >= t["R"]


def test_constant_overrides_and_provenance():
    t = derive_constants(1, 0, B=3, V=5, overrides={"r": 2, "K": 7})
    assert t["r"] == 2 and t.provenance["r"] == "override"
    assert t.provenance["M"] == "formula"
    assert t.provenance["delta"] == "input"


def test_constant_table_fingerprint_deterministic():
    a = derive_constants(1, 0, B=3, V=5)
    b = derive_constants(1, 0, B=3, V=5)
    assert a.fingerprint() == b.fingerprint()
    assert a.fingerprint() != derive_constants(2, 0, B=3, V=5).fingerprint()


def test_parse_const_file():
    out = parse_const_file("# c\ndelta = 1\nlam = 13/6\n\nK = 7\n")
    assert out == {"delta": 1, "lam": Fraction(13, 6), "K": 7}
    with pytest.raises(ValueError):
        parse_const_file("delta 1\n")


# ---------------------------------------------------------------------------
# log2 bounds against mpmath at 60 digits (mpmath is a test-only oracle)


def _mp_round_up(mp, x):
    return Fraction(int(mp.ceil(x * 2 ** 20)), 2 ** 20)


def _mpq(mp, x):
    """An int, a Fraction or an mpf as an mpf."""
    if isinstance(x, Fraction):
        return mp.mpf(x.numerator) / x.denominator
    return mp.mpf(x)


def _mp_log2_plus(mp, x):
    """log2(x) + 2**-40 in mpmath."""
    return mp.log(_mpq(mp, x), 2) + mp.mpf(2) ** -40


def _check_log2_upper(mp, value, x):
    """log2_upper(value) is mpmath's bound for x, and it is the least
    point of the 2**-20 grid at or above log2(x) + 2**-40."""
    got = log2_upper(value)
    target = _mp_log2_plus(mp, x)
    assert got == _mp_round_up(mp, target), x
    assert _mpq(mp, got - Fraction(1, 2 ** 20)) < target <= _mpq(mp, got), x


def _log_oracle_inputs():
    rng = random.Random(20)
    ints = [rng.randrange(1, 10 ** rng.randrange(1, 40)) for _ in range(200)]
    ints += [2 ** k for k in range(300)] + [2 ** k - 1 for k in range(1, 300)]
    ints += [2 ** k + 1 for k in range(300)]
    # the paper's Kd - 1 for delta = 0..7
    for delta in range(8):
        m = 290 * delta + 3
        ints.append(3 * 2 ** (2 * m + 3) + m + 2)
    rats = [Fraction(rng.randrange(1, 10 ** 12), rng.randrange(1, 10 ** 12))
            for _ in range(200)]
    rats += [Fraction(1, 2 ** k) for k in range(1, 60)]
    rats += [Fraction(2 ** k - 1, 2 ** k) for k in range(1, 60)]
    return ints + rats


def test_log2_upper_matches_mpmath_on_rationals():
    mp = pytest.importorskip("mpmath")
    with mp.workdps(60):
        for x in _log_oracle_inputs():
            _check_log2_upper(mp, x, x)


def test_round_up_matches_mpmath_on_rationals():
    mp = pytest.importorskip("mpmath")
    rng = random.Random(21)
    xs = [Fraction(rng.randrange(-10 ** 9, 10 ** 9), rng.randrange(1, 10 ** 9))
          for _ in range(500)]
    xs += [Fraction(k, 2 ** 20) for k in range(-5, 6)]
    with mp.workdps(60):
        for x in xs:
            got = round_up(x)
            assert got == _mp_round_up(mp, _mpq(mp, x))
            assert got - Fraction(1, 2 ** 20) < x <= got


def test_log2_upper_matches_mpmath_on_irrationals():
    mp = pytest.importorskip("mpmath")
    with mp.workdps(60):
        root2 = mp.sqrt(2)
        _check_log2_upper(mp, hyp._k2_over_k1, 3 + 2 * root2)
        _check_log2_upper(mp, hyp._two_k1_over_k2, 2 * (3 - 2 * root2))
        for m in range(4, 161):
            lac = 1 / (1 - mp.mpf(2) ** (-mp.mpf(1) / m))
            _check_log2_upper(mp, functools.partial(hyp._lacunarity, m), lac)


def test_log2_upper_refines_a_wide_bracket():
    # a bracket too wide at the first precision is asked again at more
    # bits, and the answer is the one for the exact value
    asked = []

    def bracket(p):
        asked.append(p)
        slack = Fraction(1, 2 ** (p // 4))
        return 3 * (1 - slack), 3 * (1 + slack)

    assert log2_upper(bracket) == log2_upper(3)
    assert asked[0] == hyp.LOG_BITS and len(asked) > 1


@pytest.mark.parametrize("m", [4, 7, 160])
def test_irrational_brackets_hold_their_value(m):
    # each bracket holds the value it stands for, and narrows with p
    for p in (48, 96):
        lo, hi = hyp._sqrt2(p)
        assert lo * lo <= 2 <= hi * hi and hi - lo == Fraction(1, 2 ** p)
        lo, hi = hyp._lacunarity(m, p)
        # x = 1/(1 - 2**(-1/m)) iff 2 = (x / (x - 1))**m
        assert (lo / (lo - 1)) ** m >= 2 >= (hi / (hi - 1)) ** m
        assert hi - lo < Fraction(m, 2 ** (p - 1))


# ---------------------------------------------------------------------------
# N bounds on first read


def _eager_n_bounds(t):
    """The four N bounds by their formulas, from the table's own k, R, eta,
    N_min, B and V."""
    V, eta = t["V"], t["eta"]
    bulk = (t["k"] + t["R"] + 1) * t["B"] ** math.ceil(2 * eta)
    return {"N_max": t["N_min"] * bulk * 2 ** V + 1,
            "N1": 2 * (V - 1) * (bulk * V ** (V + 1) + 2 * eta) + 2 * eta
            + 2 * (bulk + 1),
            "N2": bulk + 1,
            "N3": 2 * bulk * V ** (V + 1) + 4 * eta}


def _spy_n_bounds(monkeypatch):
    """Record (name, id(bulk)) for every N bound the tables evaluate."""
    calls = []
    real = hyp._n_bound

    def spy(name, values, bulk):
        calls.append((name, id(bulk)))
        return real(name, values, bulk)

    monkeypatch.setattr(hyp, "_n_bound", spy)
    return calls


def test_n_bounds_evaluated_on_first_read(monkeypatch):
    calls = _spy_n_bounds(monkeypatch)
    t = derive_constants(1, 0, B=3, V=5)
    assert calls == []
    assert t["M"] == 293 and t["Kd"] == 3 * 2 ** 589 + 296
    assert calls == []
    eager = _eager_n_bounds(t)
    for name in ("N1", "N3", "N1", "N_max", "N2"):
        assert t[name] == eager[name], name
    # one evaluation per bound, all from one bulk
    assert [c[0] for c in calls] == ["N1", "N3", "N_max", "N2"]
    assert len({c[1] for c in calls}) == 1
    assert all(t.provenance[name] == "formula" for name in eager)


@pytest.mark.parametrize("reader", ["values", "fingerprint"])
def test_whole_table_readers_evaluate_every_n_bound(monkeypatch, reader):
    calls = _spy_n_bounds(monkeypatch)
    t = derive_constants(0, 0, n=4, B=3, V=4)
    out = getattr(t, reader)
    if callable(out):
        out()
    assert sorted(c[0] for c in calls) == ["N1", "N2", "N3", "N_max"]
    assert len({c[1] for c in calls}) == 1
    eager = _eager_n_bounds(t)
    assert {name: t.values[name] for name in eager} == eager
    assert len(calls) == 4


def test_overridden_n_bound_is_never_computed(monkeypatch):
    calls = _spy_n_bounds(monkeypatch)
    t = derive_constants(1, 0, B=3, V=5, overrides={"N2": 7})
    assert t["N2"] == 7 and t.provenance["N2"] == "override"
    assert calls == []
    eager = _eager_n_bounds(t)
    for name in ("N_max", "N1", "N3"):
        assert t[name] == eager[name] and t.provenance[name] == "formula"
    assert t.values["N2"] == 7
    assert "N2" not in [c[0] for c in calls]


def test_ddag_search_rejects_an_empty_n_range(free2_space):
    t = derive_constants(0, 0, n=4, B=3, V=4, overrides={"kd": 0, "Kd": 3})
    with pytest.raises(ValueError, match="below Kd, a 2-bit number"):
        ddag_search(free2_space, 0, t, n_cap=2)
    assert ddag_search(free2_space, 0, t, n_cap=3).status == "exhausted"


def test_n_bounds_unset_without_b_and_v():
    t = derive_constants(1, 0, B=3)
    assert not set(t.values) & {"N_max", "N1", "N2", "N3"}
    with pytest.raises(KeyError):
        t["N1"]
    assert derive_constants(1, 0, overrides={"N1": 4})["N1"] == 4


@pytest.mark.parametrize("kwargs,entry", [
    ({"delta": -1}, "delta"),
    ({"delta": Fraction(1, 2)}, "delta"),
    ({"delta": 1, "delta_per": -1}, "delta_per"),
    ({"delta": 1, "delta_per": Fraction(3, 2)}, "delta_per"),
    ({"delta": 1, "n": 0}, "n"),
    ({"delta": 1, "B": 0, "V": 5}, "B"),
    ({"delta": 1, "B": 3, "V": 0}, "V"),
    ({"delta": 1, "B": 3, "V": Fraction(3, 2)}, "V"),
    # a negative eta would make B**ceil(2*eta) in the N bounds a float
    ({"delta": 1, "B": 3, "V": 5, "overrides": {"eta": -1}}, "eta"),
])
def test_derive_constants_rejects_malformed_entries(kwargs, entry):
    with pytest.raises(ValueError, match="^%s: " % entry):
        derive_constants(**kwargs)


def test_star_pairs_symmetric_distance_window(line_space):
    t = derive_constants(0, 0, n=4, B=3, V=4)
    pairs = list(star_pairs_iter(line_space, 0, eps=0, M=1, radius=6,
                                 height_bound=0))
    from jsjforge.geometry import bfs_distances
    dist0 = bfs_distances(line_space, [0])
    for x, y, m in pairs:
        assert abs(dist0[x] - dist0[y]) <= 0
        assert m == min(dist0[x], dist0[y]) >= 0


def test_check_ddag_line_pair_blocked(line_space):
    # opposite points on the line at distance m from the base: any path
    # avoiding the ball around the base must climb the horoball
    t = derive_constants(0, 0, n=4, B=3, V=4)
    x = line_space.ball.vertex_id((1,) * 4)
    y = line_space.ball.vertex_id((-1,) * 4)
    ans = check_ddag(line_space, 0, 0, 40, (x, y), t)
    assert ans.ok
    assert all(v not in (0,) for v in ans.path[1:-1])


def test_ddag_search_free_group_refutes(free2_space):
    # trees have cut points everywhere: every n is refuted
    t = derive_constants(0, 0, n=4, B=3, V=4, overrides={"kd": 0, "Kd": 1})
    rep = ddag_search(free2_space, 0, t, n_cap=8)
    assert rep.status == "exhausted"
    assert rep.failures
    assert rep.pairs_checked > 0


def test_ddag_search_window_insufficient_at_full_constants(line_space):
    t = derive_constants(1, 0, B=3, V=5)
    rep = ddag_search(line_space, 0, t, n_cap=int(t["Kd"]))
    assert rep.status == "window-insufficient"
    assert rep.required_radius > line_space.R_max


# ---------------------------------------------------------------------------
# networkx oracles for the double-dagger search and delta certification

G2 = "gen a b c d\nrel abABcdCD\n"
LINE = "gen a\nper P = a\n"


def _window(text, R, h):
    p = parse_presentation(text)
    return CuspedSpace(p, default_backend(p), R_max=R, h_max=h)


def _nx_window(space):
    g = nx.Graph()
    g.add_nodes_from(space.vertices())
    for v in space.vertices():
        g.add_edges_from((v, u) for u in space.adjacency()[v])
    return g


def _avoiding_length(g, dv, cutoff, x, y):
    """Shortest x-y path length in the window minus the closed ball
    dv <= cutoff, x and y exempt; None when there is none."""
    keep = [u for u in g if dv[u] > cutoff or u == x or u == y]
    try:
        return nx.shortest_path_length(g.subgraph(keep), x, y)
    except nx.NetworkXNoPath:
        return None


def _ddag_reference(space, v, table, n_cap, eps, shift=0):
    """ddag_search's report rebuilt pair by pair from networkx distances;
    shift moves every forbidden cutoff (the negative control)."""
    g = _nx_window(space)
    dist = dict(nx.all_pairs_shortest_path_length(g))
    dv = dist[v]
    avail = space.R_max - dist[0][v]
    M, kd = int(table["M"]), int(table["kd"])
    failures, checked = [], 0
    for n in range(int(table["Kd"]), n_cap + 1):
        Rn = table.Rd(n)
        elig = sorted((dv[u], u) for u in g
                      if dv[u] <= min(Rn, avail) and space.height(u) <= kd)
        eligible = {u for _, u in elig}
        first_fail = None
        for dx, x in elig:
            for y in sorted(dist[x]):
                if y < x or y not in eligible or dist[x][y] > M \
                        or abs(dx - dv[y]) > eps:
                    continue
                checked += 1
                m = min(dx, dv[y])
                cutoff = math.floor(m - table["C"] - 45 * table["delta"]
                                    + 3 * eps) + shift
                length = _avoiding_length(g, dv, cutoff, x, y)
                if length is None or length > n:
                    first_fail = (n, (x, y), m)
                    break
            if first_fail:
                break
        if first_fail is None:
            if Rn > avail:
                return ("window-insufficient", n, Rn, failures, checked)
            return ("found", n, None, failures, checked)
        if len(failures) < 3:
            failures.append(first_fail)
    return ("exhausted", None, None, failures, checked)


# (window, v, delta, eps, overrides, n_cap); C = 3*eps - k puts the
# forbidden cutoff at m + k
DDAG_CASES = [
    (("gen a b\n", 4, 0), 0, 0, 0, {"kd": 0, "Kd": 1}, 4),
    (("gen a b\n", 4, 0), 2, 0, 2, {"kd": 0, "Kd": 1, "M": 2, "C": 5}, 3),
    ((LINE, 24, 5), 0, 0, 0, {"kd": 0, "Kd": 1, "M": 2, "C": 1}, 4),
    ((LINE, 24, 5), 1, 0, 1, {"kd": 0, "Kd": 2, "M": 2, "C": 5}, 4),
    ((LINE, 24, 5), 1, 0, 1, {"kd": 1, "Kd": 1, "M": 2, "C": 2}, 4),
    ((LINE, 24, 5), 2, 0, 2, {"kd": 0, "Kd": 1, "M": 3, "C": 8}, 3),
    ((LINE, 32, 5), 2, 0, 2, {"kd": 0, "Kd": 1, "M": 3, "C": 7}, 5),
    (("gen a b\nper A = a\n", 3, 2), 0, 0, 1,
     {"kd": 1, "Kd": 1, "M": 2, "C": 3}, 3),
    (("gen a b\nrel aaa\nrel bbbb\n", 4, 0), 0, 0, 5,
     {"kd": 0, "Kd": 1, "M": 2, "C": 14}, 3),
    (("gen a b\nrel aaa\nrel bbbb\n", 4, 0), 3, 0, 18,
     {"kd": 0, "Kd": 1, "M": 2, "C": 55}, 3),
    ((G2, 2, 0), 0, 1, 10, {}, None),
    ((G2, 2, 0), 0, 0, 0, {"kd": 0, "Kd": 1, "M": 2}, 3),
    # (x, y) = (1, 2) fails at every n, and x's avoiding BFS closes at
    # depth 6, below the n cap: the kept map is grown past its close
    (("gen a b\n", 6, 0), 0, 0, 0, {"kd": 0, "Kd": 1}, 8),
]


def _ddag_case(case):
    window, v, delta, eps, overrides, n_cap = case
    space = _window(*window)
    table = derive_constants(delta, 0, n=4, B=3, V=4, overrides=overrides)
    if n_cap is None:
        n_cap = int(table["Kd"])
    return space, v, table, n_cap, eps


@pytest.mark.parametrize("case", DDAG_CASES)
def test_ddag_search_matches_networkx_reference(case):
    space, v, table, n_cap, eps = _ddag_case(case)
    rep = ddag_search(space, v, table, n_cap, eps=eps)
    assert (rep.status, rep.n, rep.required_radius, rep.failures,
            rep.pairs_checked) == _ddag_reference(space, v, table, n_cap, eps)


def test_ddag_reference_cases_cover_every_status():
    statuses = set()
    for case in DDAG_CASES:
        space, v, table, n_cap, eps = _ddag_case(case)
        rep = ddag_search(space, v, table, n_cap, eps=eps)
        statuses.add((rep.status, bool(rep.failures)))
    assert statuses == {("exhausted", True), ("found", True),
                        ("found", False), ("window-insufficient", True),
                        ("window-insufficient", False)}


@pytest.mark.parametrize("shift", [-1, 1])
def test_ddag_reference_negative_control(shift):
    # an off-by-one forbidden cutoff must change some report, or the
    # reference above could not tell a wrong cutoff from a right one
    changed = 0
    for case in DDAG_CASES:
        space, v, table, n_cap, eps = _ddag_case(case)
        rep = ddag_search(space, v, table, n_cap, eps=eps)
        got = (rep.status, rep.n, rep.required_radius, rep.failures,
               rep.pairs_checked)
        changed += got != _ddag_reference(space, v, table, n_cap, eps,
                                          shift=shift)
    assert changed > 0


def test_ddag_search_resumes_the_failing_maps(monkeypatch):
    """In the F2 case at R=6 the pair (1, 2) fails at every n from 1 to
    8: x = 1's one avoiding map is built once and grown one level per n,
    never rebuilt, and its BFS closes before the n cap."""
    space, v, table, n_cap, eps = _ddag_case(DDAG_CASES[-1])
    built, grown = [], []

    class Counted(ParentBFS):
        __slots__ = ()

        def __init__(self, adj, x, dist=None, cutoff=-1):
            super().__init__(adj, x, dist, cutoff)
            built.append((x, cutoff))

        def grow(self, depth, stop=None):
            grown.append((self.level, depth))
            return super().grow(depth, stop)

    monkeypatch.setattr(hyp, "ParentBFS", Counted)
    rep = ddag_search(space, v, table, n_cap, eps=eps)
    assert rep.status == "exhausted"
    assert [pair for _, pair, _ in rep.failures] == [(1, 2)] * 3
    assert built == [(1, 1)]
    assert grown == [(min(n - 1, 6), n) for n in range(1, n_cap + 1)]


@pytest.mark.parametrize("window", [("gen a b\n", 6, 0), (LINE, 24, 5),
                                    ("gen a b\nper A = a\n", 3, 2)])
def test_parent_bfs_grown_level_by_level_equals_one_shot(window):
    """A ParentBFS grown one level at a time is, at every depth, the dict
    a fresh bfs_parents builds to that depth, order included, for a
    spread of x and cutoffs; the map one level deeper differs at some
    depth, so the comparison can see a level too many."""
    space = _window(*window)
    adj, dist_v = space.adjacency(), space.distances(0)
    deeper_differs = 0
    for x in range(0, space.n, max(1, space.n // 8)):
        for cutoff in (-1, 0, 1, 2):
            bfs = ParentBFS(adj, x, dist_v, cutoff)
            for depth in range(12):
                got = list(bfs.grow(depth).items())
                assert got == list(
                    bfs_parents(adj, x, depth, dist_v, cutoff).items()), \
                    (x, cutoff, depth)
                deeper = bfs_parents(adj, x, depth + 1, dist_v, cutoff)
                deeper_differs += list(deeper.items()) != got
    assert deeper_differs


def test_ddag_search_resumed_one_level_too_far_changes_a_report(
        monkeypatch):
    """Negative control of the resume: a kept map grown one level past
    the n the search stands at must change some report, or the networkx
    reference could not tell a wrong resume from a right one."""

    class TooFar(ParentBFS):
        __slots__ = ()

        def grow(self, depth, stop=None):
            return super().grow(depth + (self.level > 0), stop)

    monkeypatch.setattr(hyp, "ParentBFS", TooFar)
    changed = 0
    for case in DDAG_CASES:
        space, v, table, n_cap, eps = _ddag_case(case)
        rep = ddag_search(space, v, table, n_cap, eps=eps)
        changed += (rep.status, rep.n, rep.required_radius, rep.failures,
                    rep.pairs_checked) != _ddag_reference(space, v, table,
                                                          n_cap, eps)
    assert changed > 0


def _check_ddag_against_networkx(space, v, eps, n, pairs, table):
    g = _nx_window(space)
    dv = nx.single_source_shortest_path_length(g, v)
    d0 = nx.single_source_shortest_path_length(g, 0)
    oks = 0
    for x, y in pairs:
        ans = check_ddag(space, v, eps, n, (x, y), table)
        cutoff = math.floor(min(dv[x], dv[y]) - table["C"]
                            - 45 * table["delta"] + 3 * eps)
        keep = [u for u in g if dv[u] > cutoff or u == x or u == y]
        reach = nx.single_source_shortest_path_length(g.subgraph(keep), x,
                                                      cutoff=n)
        assert ans.ok == (y in reach), (x, y)
        if ans.ok:
            oks += 1
            path = ans.path
            assert path[0] == x and path[-1] == y
            assert len(path) - 1 == reach[y]
            assert all(g.has_edge(a, b) for a, b in zip(path, path[1:]))
            assert all(dv[u] > cutoff for u in path[1:-1])
            assert not ans.caveat
        else:
            assert ans.path is None
            assert ans.caveat == any(
                d0[u] >= space.R_max or space.height(u) >= space.h_max > 0
                for u in reach), (x, y)
    return oks


def test_check_ddag_matches_networkx_on_free_group_pairs():
    # criterion 3's pairs on a smaller window: every pair with m >= 2 is
    # refuted, and the search runs into the window's edge
    space = _window("gen a b\n", 6, 0)
    tab = derive_constants(0, 0, n=4, B=3, V=4, overrides={"kd": 0, "Kd": 1})
    pairs = [(x, y) for x, y, m in star_pairs_iter(
        space, 0, 0, int(tab["M"]), radius=6, height_bound=0)
        if m >= 2 and x != y]
    pairs = random.Random(3).sample(pairs, 200)
    assert _check_ddag_against_networkx(space, 0, 0, 20, pairs, tab) == 0
    assert all(check_ddag(space, 0, 0, 20, pair, tab).caveat
               for pair in pairs)


@pytest.mark.parametrize("v,eps,k,n", [(0, 0, 0, 40), (0, 1, 1, 4),
                                       (2, 2, -1, 3), (3, 0, 2, 6)])
def test_check_ddag_matches_networkx_on_line_pairs(line_space, v, eps, k, n):
    tab = derive_constants(0, 0, n=4, B=3, V=4, overrides={"C": 3 * eps - k})
    rng = random.Random(v * 100 + n)
    pairs = [(x, y) for x, y, _ in star_pairs_iter(line_space, v, eps, 4)]
    pairs = rng.sample(pairs, min(150, len(pairs)))
    verts = list(line_space.vertices())
    pairs += [(rng.choice(verts), rng.choice(verts)) for _ in range(50)]
    oks = _check_ddag_against_networkx(line_space, v, eps, n, pairs, tab)
    assert 0 < oks < len(pairs)


@pytest.mark.parametrize("window,radius", [
    (("gen a b\n", 5, 0), 2),
    ((LINE, 6, 2), 3),
    (("gen a b\nper A = a\n", 3, 2), 2),
    (("gen a b\nrel aaa\nrel bbbb\n", 4, 0), 2),
    ((G2, 2, 0), 1),
])
@pytest.mark.parametrize("all_geodesics", [False, True])
def test_certify_delta_matches_unclipped_distances(window, radius,
                                                   all_geodesics):
    """The certificate against whole-window networkx distances, with the
    program's geodesics (or networkx's full geodesic sets)."""
    space = _window(*window)
    g = _nx_window(space)
    dist = dict(nx.all_pairs_shortest_path_length(g))
    verts = sorted(u for u in g if dist[0][u] <= radius)

    def sides(a, b):
        if all_geodesics:
            return list(nx.all_shortest_paths(g, a, b))
        return [shortest_path(space, a, b)]

    delta, worst, count = 0, (), 0
    for tri in itertools.combinations(verts, 3):
        count += 1
        x, y, z = tri
        for s1, s2, s3 in itertools.product(sides(x, y), sides(x, z),
                                            sides(y, z)):
            for side, o1, o2 in ((s1, s2, s3), (s2, s1, s3), (s3, s1, s2)):
                others = set(o1) | set(o2)
                for p in side:
                    if p in others:
                        continue
                    d = min(dist[p][q] for q in others)
                    if d > delta:
                        delta, worst = d, tri
    cert = certify_delta(space, radius, all_geodesics=all_geodesics)
    assert (cert.delta, cert.triangles, cert.worst) == (delta, count, worst)


@pytest.mark.parametrize("window,radius", [
    (("gen a b\n", 5, 0), 2),
    ((LINE, 16, 6), 4),
    ((G2, 3, 0), 2),
])
def test_certify_delta_paths_are_shortest_paths(monkeypatch, window,
                                                radius):
    """The geodesic certify_delta reads off each source's parent map is
    shortest_path's, for every pair of vertices within the radius, and
    every vertex but the last is the source of one map."""
    import jsjforge.hyperbolicity as H
    space = _window(*window)
    paths, maps = [], []
    real_parents, real_path_to = H.bfs_parents, H.path_to

    def parents(adj, x, depth, *args, **kwargs):
        maps.append(x)
        return real_parents(adj, x, depth, *args, **kwargs)

    def path_to(parent, y):
        paths.append(real_path_to(parent, y))
        return paths[-1]

    monkeypatch.setattr(H, "bfs_parents", parents)
    monkeypatch.setattr(H, "path_to", path_to)
    certify_delta(space, radius)
    verts = sorted(u for u, d in space.distances(0).items() if d <= radius)
    assert [(p[0], p[-1]) for p in paths] == \
        list(itertools.combinations(verts, 2))
    assert maps == verts[:-1]
    for p in paths:
        assert p == shortest_path(space, p[0], p[-1])


@pytest.mark.parametrize("all_geodesics", [False, True])
def test_certify_delta_one_bfs_per_vertex(monkeypatch, all_geodesics):
    """One clipped distance map per vertex of the radius-2 ball (17 on
    F2), shared by the geodesic enumeration and the thinness check."""
    import jsjforge.hyperbolicity as H
    space = _window("gen a b\n", 5, 0)
    calls = []
    bfs = H.bfs_distances

    def counted(space, sources, cutoff=None):
        calls.append(cutoff)
        return bfs(space, sources, cutoff)

    monkeypatch.setattr(H, "bfs_distances", counted)
    cert = certify_delta(space, 2, all_geodesics=all_geodesics)
    assert cert.delta == 0 and cert.triangles == 680
    assert calls == [4] * 17

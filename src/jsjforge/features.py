"""Boundary feature searches: cut points, cut pairs, non-cut pairs.

Cut points of the boundary are detected by disconnection of the annulus
around peripheral vertical rays.  Cut pairs and non-cut pairs are
detected through two kinds of finite features: periodic ones (a short
translation-periodic geodesic segment at shallow depth whose annulus
splits into two translation-compatible sides) and horseshoe ones (a
segment dipping through a horoball whose primed annulus is disconnected
or connected, respectively).  Each search feeds its candidates to one
loop that spends the budget, replays every built feature through its
verifier and returns the first one accepted as found, or else names why
it stopped: none-in-budget, window-insufficient or none-at-full-bound.
The geodesic paths from the base are walked over the window's distance
map from the base, space.distances(0).  The non-cut search walks the
paths of each span total once, when the first triple of span lengths
with that total comes up, and judges every triple of that total on each
path: the first streams as the walk goes, and each later one keeps only
the features it built, by path ordinal, plus the path count, and replays
them in its turn.  The walk judges the first segments of a total at the
depth of the longest: a prefix on which every one of them fails builds
nothing below it, so its paths are counted by a sweep over the later
distance layers, not walked, and stream as one run of n rejected
candidates, which the loop spends against the budget exactly; a walked
path counts as one candidate.  A built triple is screened by condition
(f) of its verifier, judged once per (middle segment, thick parameter)
in a search off one ball memo: a triple that fails it streams as
rejected, one that passes is replayed in full.
"""

import json
from dataclasses import dataclass, field
from fractions import Fraction
from itertools import chain

from .annulus import Balls, UnionFind, _components, annulus_decompose, \
    horseshoe_decompose, hot_set, shells
from .geometry import bfs_distances, distance
from .hyperbolicity import ceil_frac, floor_frac
from .words import concat, inverse_word


@dataclass(frozen=True)
class CutPairFeature:
    kind: str                 # periodic | horseshoe
    path: tuple               # vertex ids, domain [a-eta, b+eta] (periodic)
    eta: int = 0              # integer margin
    g: tuple = None           # translation, a group element word
    partition: tuple = None   # (frozenset, frozenset) for periodic
    c_index: int = None       # thick parameter, index into path

    @property
    def a_index(self):
        return self.eta

    @property
    def b_index(self):
        return len(self.path) - 1 - self.eta


@dataclass(frozen=True)
class NonCutFeature:
    kind: str                 # triple | horseshoe
    segments: tuple = ()      # three overlapping paths for the triple kind
    etas: tuple = ()          # margins per segment
    g1: tuple = None
    g3: tuple = None
    c_index: int = None       # index into the middle segment
    path: tuple = ()          # horseshoe segment


@dataclass
class SearchOutcome:
    verdict: str              # found | none-in-budget | none-at-full-bound
                              # | window-insufficient
    feature: object = None
    stats: dict = field(default_factory=dict)


def _params(table):
    r = table["r"]
    K = table["K"]
    R = table["R"]
    if Fraction(r) < 1 or Fraction(K) < 1:
        raise ValueError("degenerate annulus parameters: need r >= 1, K >= 1")
    return r, K, R


# ---------------------------------------------------------------------------
# cut points


def detect_cut_point(space, table):
    """Test, for each peripheral subgroup, whether the annulus around the
    vertical ray over the identity is disconnected within the thick part
    of depth k.  A disconnection witnesses a cut point candidate."""
    if not space.presentation.peripherals:
        return SearchOutcome("none-at-full-bound",
                             stats={"reason": "no peripherals"})
    r, K, R = _params(table)
    k = ceil_frac(table["k"])
    caveat_seen = False
    for pi in range(len(space.presentation.peripherals)):
        ray = space.vertical_ray(0, pi)
        dec = annulus_decompose(space, ray, r, K, R)
        caveat_seen = caveat_seen or dec.caveat
        shallow = {v for v in dec.a_vertices if space.height(v) <= k}
        comps = _components(space, shallow)
        if len(comps) >= 2:
            name = space.presentation.peripherals[pi][0]
            return SearchOutcome("found", feature={
                "peripheral": name, "components": len(comps),
                "caveat": dec.caveat})
    if caveat_seen:
        return SearchOutcome("window-insufficient",
                             stats={"reason": "annuli touch window boundary"})
    return SearchOutcome("none-at-full-bound")


# ---------------------------------------------------------------------------
# cut pair verifier


def verify_cut_pair_feature(space, f, table):
    """Condition-by-condition check; returns (ok, report) where report is
    a list of (condition, ok, detail) triples."""
    if f.kind == "horseshoe":
        return _verify_cutpair_horseshoe(space, f, table)
    report = []
    r, K, R = _params(table)
    a, b = f.a_index, f.b_index
    span = b - a
    depth_bound = ceil_frac(Fraction(table["k"]) + Fraction(R))
    ok_dom = all(space.height(v) <= depth_bound for v in f.path)
    dans = distance(space, f.path[0], f.path[-1])
    ok_dom = ok_dom and dans.dist == len(f.path) - 1
    report.append(("domain", ok_dom,
                   "segment geodesic in X_(k+R), margins %d" % f.eta))
    ok_a = Fraction(table["N_min"]) <= span <= Fraction(table["N_max"])
    report.append(("a", ok_a, "N_min <= b-a <= N_max, b-a=%d" % span))
    ga = space.translate(f.g, f.path[a])
    ok_b = (space.height(f.path[a]) == space.height(f.path[b])
            and ga == f.path[b])
    report.append(("b", ok_b, "equal heights and g.gamma(a) = gamma(b)"))
    ok_c = all(space.translate(f.g, f.path[a + t]) == f.path[b + t]
               for t in range(-f.eta, f.eta + 1))
    report.append(("c", ok_c, "g-overlap of the eta-margins"))
    balls = Balls(space, K, R, table["T"])
    X, CK = shells(space, f.path, a, b, r, K, R, balls)
    ok_d, detail_d = _check_partition(space, f, table, X, CK, balls)
    report.append(("d", ok_d, detail_d))
    ok_e, detail_e = _check_translate_compat(space, f, table, X)
    report.append(("e", ok_e, detail_e))
    return all(ok for _, ok, _ in report), report


def _check_partition(space, f, table, X, CK, balls):
    if f.partition is None or f.c_index is None:
        return False, "partition or thick parameter missing"
    P1, P2 = f.partition
    if set(P1) | set(P2) != X or (set(P1) & set(P2)) or not P1 or not P2:
        return False, "not a partition of N_(r,R) /\\ N_R(mid)"
    for v in X:
        side = v in P1
        for u in space.neighbors(v):
            if u in X and (u in P1) != side:
                return False, "crossing edge %d -- %d" % (v, u)
    c = f.path[f.c_index]
    if space.height(c) != 0:
        return False, "thick parameter not at height 0"
    hot = hot_set(space, CK, c, table["T"], balls)
    if hot.isdisjoint(P1) or hot.isdisjoint(P2):
        return False, "a side misses C_K /\\ B_T(gamma(c))"
    return True, "valid two-sided partition"


def _check_translate_compat(space, f, table, X):
    rho = floor_frac(table["rho"])
    a, b = f.a_index, f.b_index
    za = set(bfs_distances(space, [f.path[a]], cutoff=rho)) & X
    zb = set(bfs_distances(space, [f.path[b]], cutoff=rho)) & X
    P1 = set(f.partition[0]) if f.partition else set()
    image = {}
    for v in sorted(za):
        w = space.translate(f.g, v)
        if w is None or w not in zb:
            return False, "g does not carry B_rho(gamma(a)) zone into the " \
                          "gamma(b) zone (vertex %d)" % v
        image[v] = w
        if ((v in P1) != (w in P1)):
            return False, "g moves vertex %d across the partition" % v
    if set(image.values()) != zb:
        return False, "g-image does not cover the gamma(b) zone"
    return True, "partition g-compatible on the rho-zones"


def _verify_cutpair_horseshoe(space, f, table):
    report = []
    r, K, R = _params(table)
    k = ceil_frac(table["k"])
    span = len(f.path) - 1
    bound = Fraction(table["N_max"]) - 2 * Fraction(R) + 2 * Fraction(table["eta"])
    report.append(("a", Fraction(span) <= bound,
                   "b-a <= N_max - 2R + 2eta"))
    ha = space.height(f.path[0])
    hb = space.height(f.path[-1])
    report.append(("b", ha == hb >= k, "endpoint heights equal and >= k"))
    mono = (len(f.path) >= 2
            and space.height(f.path[1]) == ha - 1
            and space.height(f.path[-2]) == hb - 1)
    report.append(("c", mono, "descending at a, ascending at b"))
    try:
        dec = horseshoe_decompose(space, f.path, r, K, R)
        disc = (not dec.empty) and not dec.connected
        report.append(("d", disc, "A' disconnected (%d components)"
                       % len(dec.components)))
    except ValueError as e:
        report.append(("d", False, str(e)))
    return all(ok for _, ok, _ in report), report


# ---------------------------------------------------------------------------
# periodic path construction


def build_periodic_path(space, f, m_range):
    """gamma'((b-a)m + t) = g^m gamma(a+t) over the given m values
    (a consecutive integer range).  The (8*delta+1)-local-geodesic check
    is left to the caller; translates leaving the window raise."""
    ms = sorted(m_range)
    if ms != list(range(ms[0], ms[-1] + 1)):
        raise ValueError("m_range must be consecutive")
    a, b = f.a_index, f.b_index
    core = f.path[a:b + 1]
    out = []
    for m in ms:
        gp = ()
        w = f.g if m >= 0 else inverse_word(f.g)
        for _ in range(abs(m)):
            gp = concat(gp, w)
        block = [space.translate(gp, v) for v in core]
        if any(v is None for v in block):
            raise ValueError("translate g^%d exits the window" % m)
        if out and out[-1] == block[0]:
            block = block[1:]
        elif out and out[-1] != block[0]:
            raise ValueError("translates do not concatenate")
        out.extend(block)
    return out


# ---------------------------------------------------------------------------
# candidate streams and the shared search loop


def _first_verified(space, table, verify, candidates, budget, window_cut,
                    stats):
    """Spend the budget on a stream of (stats key, feature or None, n)
    items: a built feature comes with n = 1, and None with n for a run
    of n candidates that built nothing.  Each candidate counts once, a
    run that outlasts the budget only as far as the budget goes.  Every
    built feature is replayed through verify and the first one it
    accepts is returned.  Otherwise the stop reason: the budget once it
    is spent (even if the stream also ended), the window when it cut
    the stream short, or else the full bound."""
    spent = 0
    if budget > 0:
        for key, f, n in candidates:
            n = min(n, budget - spent)
            spent += n
            stats[key] += n
            if f is not None and verify(space, f, table)[0]:
                return SearchOutcome("found", f, stats)
            if spent >= budget:
                break
    if spent >= budget:
        return SearchOutcome("none-in-budget", stats=stats)
    if window_cut:
        return SearchOutcome("window-insufficient", stats=stats)
    return SearchOutcome("none-at-full-bound", stats=stats)


def _geodesic_paths(space, length, depth_bound, dist_base, cut_depth=-1,
                    cut=None):
    """All geodesic paths from the base vertex 0 of the exact length
    inside the depth-bounded part, in deterministic order (extensions by
    sorted neighbor id, which follows the shortlex vertex layout), each
    as (path, 1).  dist_base is a distance map from 0 exact up to at
    least length, such as the window's, space.distances(0).  A prefix
    of cut_depth edges that cut rules out is not walked: it comes as
    (prefix, the number of its completions) in their place, unless it
    has none."""
    adj, heights = space.adjacency(), space.heights
    stack = [(0,)]
    while stack:
        path = stack.pop()
        depth = len(path) - 1
        if depth == length:
            yield path, 1
            continue
        if depth == cut_depth and cut(path):
            n = _completions(adj, heights, dist_base, path[-1], depth, length,
                             depth_bound)
            if n:
                yield path, n
            continue
        for u in reversed(adj[path[-1]]):
            if heights[u] > depth_bound:
                continue
            if dist_base.get(u, -1) != depth + 1:
                continue
            stack.append(path + (u,))


def _completions(adj, heights, dist_base, v, depth, length, depth_bound):
    """How many of the paths _geodesic_paths yields pass through v at the
    given depth: a sweep over the later distance layers, forward
    neighbors only, that carries path counts and keeps repeated
    adjacency entries, as the walk does.  One layer is held at a time."""
    layer = {v: 1}
    for d in range(depth + 1, length + 1):
        nxt = {}
        for u, c in layer.items():
            for w in adj[u]:
                if heights[w] <= depth_bound and dist_base.get(w, -1) == d:
                    nxt[w] = nxt.get(w, 0) + c
        layer = nxt
    return sum(layer.values())


def _horseshoe_paths(space, starts, length_bound):
    """Horseshoe segments from each start in turn: down into the horoball
    at once, never above the start's height, and back up to it, at most
    length_bound edges long."""
    for v in starts:
        h = space.height(v)
        stack = [(v,)]
        while stack:
            path = stack.pop()
            last = path[-1]
            if (len(path) >= 3 and space.height(last) == h
                    and space.height(path[-2]) == h - 1):
                yield path
            if len(path) - 1 >= length_bound:
                continue
            for u in reversed(space.neighbors(last)):
                if u in path or space.height(u) > h:
                    continue
                if len(path) == 1 and space.height(u) != h - 1:
                    continue  # must descend at a
                stack.append(path + (u,))


# ---------------------------------------------------------------------------
# cut pair search


def search_cut_pair(space, table, budget=2000):
    """Enumerate candidate periodic features (geodesic segments from the
    base, by length then discovery order, all walked over the window's
    distance map from the base), then horseshoe segments whose endpoints
    sit at height >= max(1, k); return the first candidate the verifier
    accepts."""
    r, K, R = _params(table)
    eta = ceil_frac(table["eta"])
    need = ceil_frac(table["N_min"]) + 2 * eta
    n_hi = floor_frac(table["N_max"]) + 2 * eta
    if need > space.R_max:
        return SearchOutcome("window-insufficient", stats={
            "required_radius": need, "window": space.R_max})
    k = ceil_frac(table["k"])
    depth_bound = ceil_frac(Fraction(table["k"]) + Fraction(R))
    totals = range(need, min(n_hi, space.R_max) + 1)
    dist_base = space.distances(0)
    periodic = (("periodic_candidates",
                 _periodic_candidate(space, path, eta, table, r, K, R), 1)
                for total in totals
                for path, _ in _geodesic_paths(space, total, depth_bound,
                                               dist_base))
    starts = (v for v in space.vertices() if space.height(v) >= max(1, k)) \
        if max(1, k) <= space.h_max else ()
    length_bound = floor_frac(Fraction(table["N_max"]) - 2 * Fraction(R)
                              + 2 * Fraction(table["eta"]))
    horseshoes = (("horseshoe_candidates", CutPairFeature("horseshoe", path),
                   1)
                  for path in _horseshoe_paths(space, starts, length_bound))
    out = _first_verified(
        space, table, verify_cut_pair_feature, chain(periodic, horseshoes),
        budget, n_hi > space.R_max or k > space.h_max,
        {"periodic_candidates": 0, "horseshoe_candidates": 0})
    if out.feature is not None and out.feature.kind == "periodic":
        out.stats["verified"] = True  # the stats of a periodic find say so
    return out


def _periodic_candidate(space, path, eta, table, r, K, R):
    """Assemble a candidate feature on a segment: heights must agree at a
    and b, the translation g is read off the endpoints, the margins must
    be g-compatible, and a valid two-sided component partition must
    exist.  Returns a CutPairFeature or None."""
    a = eta
    b = len(path) - 1 - eta
    va, vb = path[a], path[b]
    g = _segment_translation(space, path, eta)
    if g is None:
        return None
    balls = Balls(space, K, R, table["T"])
    X, CK = shells(space, path, a, b, r, K, R, balls)
    if not X:
        return None
    comps = _components(space, X)
    labels = {}
    for root, comp in comps.items():
        for v in comp:
            labels[v] = root
    # merge components forced together by translate-compatibility on the
    # rho-zones; the zones themselves must correspond under g
    rho = floor_frac(table["rho"])
    za = set(bfs_distances(space, [va], cutoff=rho)) & X
    zb = set(bfs_distances(space, [vb], cutoff=rho)) & X
    uf = UnionFind(list(comps))
    mapped = set()
    for v in sorted(za):
        w = space.translate(g, v)
        if w is None or w not in zb:
            return None
        mapped.add(w)
        uf.union(labels[v], labels[w])
    if mapped != zb:
        return None
    groups = {}
    for root in comps:
        groups.setdefault(uf.find(root), set()).update(comps[root])
    # both sides must meet C_K /\ B_T(gamma(c)) for some thick c in [a,b]
    for c in range(a, b + 1):
        if space.height(path[c]) != 0:
            continue
        hot = hot_set(space, CK, path[c], table["T"], balls)
        hot_groups = sorted(gr for gr, vs in groups.items() if vs & hot)
        if len(hot_groups) < 2:
            continue
        p2 = frozenset(groups[hot_groups[1]])
        p1 = frozenset(X - p2)
        return CutPairFeature("periodic", tuple(path), eta, g, (p1, p2), c)
    return None


# ---------------------------------------------------------------------------
# non-cut pairs


def verify_noncut_feature(space, f, table):
    if f.kind == "horseshoe":
        return _verify_noncut_horseshoe(space, f, table)
    report = []
    _params(table)
    segs = f.segments
    etas = f.etas
    if len(segs) != 3 or len(etas) != 3:
        return False, [("structure", False, "need three segments")]
    spans = [len(s) - 1 - 2 * e for s, e in zip(segs, etas)]
    ok = 1 <= spans[0] <= Fraction(table["N1"]) and \
        1 <= spans[2] <= Fraction(table["N1"])
    report.append(("a", ok, "outer spans within N1: %r" % (spans,)))
    report.append(("b", 1 <= spans[1] <= Fraction(table["N2"]),
                   "middle span within N2"))
    # (c) overlap agreement: end margin of segment i equals the start
    # margin of segment i+1
    ok_c = True
    for i in (0, 1):
        e_i, e_j = etas[i], etas[i + 1]
        tail = segs[i][len(segs[i]) - 1 - 2 * e_i:]
        head = segs[i + 1][:2 * e_j + 1]
        if tuple(tail) != tuple(head):
            ok_c = False
    report.append(("c", ok_c, "2eta-overlaps agree"))
    ok_d = True
    for i, g in ((0, f.g1), (2, f.g3)):
        s, e = segs[i], etas[i]
        a, b = e, len(s) - 1 - e
        if g is None:
            ok_d = False
            continue
        for t in range(-e, e + 1):
            if space.translate(g, s[a + t]) != s[b + t]:
                ok_d = False
    report.append(("d", ok_d, "g-periodicity of outer segments"))
    ok_e = all(space.height(s[e]) == space.height(s[len(s) - 1 - e])
               for s, e in zip(segs, etas))
    report.append(("e", ok_e, "equal endpoint heights"))
    depth_bound = ceil_frac(Fraction(table["k"]))
    ok_dom = all(space.height(v) <= depth_bound for s in segs for v in s)
    report.append(("domain", ok_dom, "segments in the k-thick part"))
    ok_f, detail = _noncut_condition_f(space, f, table)
    report.append(("f", ok_f, detail))
    return all(okc for _, okc, _ in report), report


def _noncut_condition_f(space, f, table, balls=None):
    """Condition (f): one search inside X from the least hot vertex of X
    reaches all of them, off the caller's Balls (a fresh one when None)."""
    r, K, R = _params(table)
    balls = Balls(space, K, R, table["T"]) if balls is None else balls
    s2, e2 = f.segments[1], f.etas[1]
    a2, b2 = e2, len(s2) - 1 - e2
    if f.c_index is None or space.height(s2[f.c_index]) != 0:
        return False, "thick parameter missing or not at height 0"
    X, CK = shells(space, s2, a2, b2, r, K, R, balls)
    left = hot_set(space, CK, s2[f.c_index], table["T"], balls) & X
    if not left:
        return False, "C_K /\\ B_T(gamma2(c)) /\\ X empty"
    adj, seen, stack = space.adjacency(), {min(left)}, [min(left)]
    while stack and not left <= seen:
        new = X.intersection(adj[stack.pop()]) - seen
        seen |= new
        stack.extend(new)
    if left <= seen:
        return True, "all hot C_K vertices in one component"
    return False, "hot C_K vertices split across components"


def _verify_noncut_horseshoe(space, f, table):
    report = []
    r, K, R = _params(table)
    k = ceil_frac(table["k"])
    span = len(f.path) - 1
    report.append(("a", Fraction(span) <= Fraction(table["N3"]),
                   "b-a <= N3"))
    ha = space.height(f.path[0])
    hb = space.height(f.path[-1])
    shape = (ha == hb == k and len(f.path) >= 3
             and space.height(f.path[1]) == ha - 1
             and space.height(f.path[-2]) == hb - 1
             and all(space.height(v) <= k for v in f.path))
    report.append(("b", shape,
                   "endpoints at height k, descending/ascending, image in "
                   "h^-1[0,k]"))
    try:
        dec = horseshoe_decompose(space, f.path, r, K, R)
        okc = (not dec.empty) and dec.connected
        report.append(("c", okc, "A' connected (%d components)"
                       % len(dec.components)))
    except ValueError as e:
        report.append(("c", False, str(e)))
    return all(ok for _, ok, _ in report), report


def search_noncut_pair(space, table, budget=2000):
    """Mirror of search_cut_pair: triples of overlapping periodic
    segments (type 1), then horseshoe segments with endpoints at height
    exactly k (type 2), the only ones its verifier can accept.  The
    triples come lengths-major, in walk order within (see
    _triple_stream): one walk per span total judges every lengths of
    that total.  Cayley edge labels decide an all-thick outer segment of
    a triple and screen the rest, which the exact translate check
    decides (see _segment_translation), each first segment is judged
    once per search and so is condition (f) of each middle segment and
    thick parameter, off one ball memo (see _condition_f_screen); every
    candidate still counts once against the budget."""
    _params(table)
    eta = ceil_frac(table["eta"])
    n1 = min(floor_frac(table["N1"]), space.R_max)
    n2 = min(floor_frac(table["N2"]), space.R_max)
    k = ceil_frac(table["k"])  # also the depth bound of the triples
    totals = [((l1, l2, l3), l1 + l2 + l3 + 2 * eta)
              for l1 in range(1, n1 + 1) for l2 in range(1, n2 + 1)
              for l3 in range(1, n1 + 1)]
    window_cut = (floor_frac(table["N1"]) + floor_frac(table["N2"]) + 2 * eta
                  > space.R_max or k > space.h_max
                  or any(total > space.R_max for _, total in totals))
    passes_f = _condition_f_screen(space, table)
    triples = ((key, f if f is None or passes_f(f) else None, n)
               for key, f, n in _triple_stream(
                   space, [(m, t) for m, t in totals if t <= space.R_max],
                   eta, k))
    starts = (v for v in space.vertices() if space.height(v) == k) \
        if 0 < k <= space.h_max else ()
    length_bound = min(floor_frac(table["N3"]), 4 * space.R_max)
    horseshoes = (("horseshoe_candidates",
                   NonCutFeature("horseshoe", path=path), 1)
                  for path in _horseshoe_paths(space, starts, length_bound))
    return _first_verified(
        space, table, verify_noncut_feature, chain(triples, horseshoes),
        budget, window_cut, {"triple_candidates": 0,
                             "horseshoe_candidates": 0})


def _condition_f_screen(space, table):
    """A test of condition (f) of the non-cut verifier, remembered per
    (middle segment, thick parameter): (f) reads nothing else of a
    triple, and many triples of one search share both.  A triple that
    fails it fails the verifier, so it need not be replayed; one that
    passes is still replayed in full.  All judgements share one Balls."""
    _, K, R = _params(table)
    balls = Balls(space, K, R, table["T"])
    seen = {}

    def passes(f):
        key = (f.segments[1], f.c_index)
        ok = seen.get(key)
        if ok is None:
            ok = seen[key] = _noncut_condition_f(space, f, table, balls)[0]
        return ok
    return passes


def _triple_stream(space, totals, eta, depth_bound):
    """("triple_candidates", feature or None, n) for each (lengths,
    total) in turn and each geodesic path of that total in walk order:
    n = 1 for a walked path, and n for a run of paths that built
    nothing, counted or replayed.
    The window's distance map from the base serves every walk, and the
    paths of a total are walked once, when its first lengths comes up:
    each path is judged for every lengths of that total.  The first
    lengths streams as the walk goes; each later one keeps only the
    features it built, by path ordinal, plus the path count, and replays
    from that record when its turn comes.  A prefix whose first segments
    fail for every lengths of the total builds nothing below it, so the
    walk counts its completions instead of walking them."""
    key = "triple_candidates"
    dist_base = space.distances(0)
    same_total = {}
    for lengths, total in totals:
        same_total.setdefault(total, []).append(lengths)
    first = {}
    records = {}    # later lengths -> (path count, {ordinal: feature})
    for lengths, total in totals:
        if lengths in records:
            n, built = records.pop(lengths)
            i = 0
            for j, f in built.items():  # by ordinal
                if j > i:
                    yield key, None, j - i
                yield key, f, 1
                i = j + 1
            if n > i:
                yield key, None, n - i
            continue
        later = [(m, {}) for m in same_total[total][1:]]
        # the first segments' vertex counts, l1 + 2 eta + 1
        cuts = sorted({m[0] + 2 * eta + 1 for m in same_total[total]})

        def ruled_out(prefix):
            return all(_first_translation(space, prefix[:c], eta, first)
                       is None for c in cuts)
        n = 0
        for path, count in _geodesic_paths(space, total, depth_bound,
                                           dist_base, cuts[-1] - 1,
                                           ruled_out):
            if len(path) <= total:  # a ruled-out prefix
                yield key, None, count
                n += count
                continue
            yield key, _triple_candidate(space, path, lengths, eta, first), 1
            for m, built in later:
                f = _triple_candidate(space, path, m, eta, first)
                if f is not None:
                    built[n] = f
            n += 1
        for m, built in later:
            records[m] = (n, built)


def _first_translation(space, seg, eta, first):
    """_segment_translation of a first segment, through the search's
    record first of those already judged."""
    g = first.get(seg, False)
    if g is False:
        g = first[seg] = _segment_translation(space, seg, eta)
    return g


def _triple_candidate(space, path, lengths, eta, first):
    """Slice an enumerated path (a tuple of spans l1 + l2 + l3 plus an eta
    margin at each end) into three segments overlapping by 2 eta.  first
    maps each first segment already seen to its translation (or None):
    many paths share it, and most fail on it, so the other two segments
    are cut only once it passes."""
    l1, l2, _ = lengths
    b1 = eta + l1
    b2 = b1 + l2
    seg1 = path[:b1 + eta + 1]
    g1 = _first_translation(space, seg1, eta, first)
    if g1 is None:
        return None
    seg3 = path[b2 - eta:]
    g3 = _segment_translation(space, seg3, eta)
    if g3 is None:
        return None
    seg2 = path[b1 - eta:b2 + eta + 1]
    c = next((i for i, v in enumerate(seg2)
              if eta <= i <= len(seg2) - 1 - eta
              and space.height(v) == 0), None)
    if c is None:
        return None
    return NonCutFeature("triple", (seg1, seg2, seg3), (eta, eta, eta),
                         g1, g3, c)


def _segment_translation(space, seg, eta):
    """The translation g = gamma(b) gamma(a)^-1 of a segment with margins
    eta, if g.gamma(a+t) = gamma(b+t) for every t in [-eta, eta], else
    None.  Left translation keeps Cayley edge labels, so a thick step
    gamma(a+t) -> gamma(a+t+1) whose label differs from that of
    gamma(b+t) -> gamma(b+t+1) rules the segment out before g is built.
    A label names the group element u^-1 v of its edge, so when both
    windows are all thick, equal labels give g.gamma(a+t) = gamma(b+t)
    by induction from t = 0 and decide; a segment that touches a
    horoball vertex is decided by the exact translate check at every
    t."""
    a, b = eta, len(seg) - 1 - eta
    va, vb = seg[a], seg[b]
    if space.height(va) != space.height(vb):
        return None
    ball, shift = space.ball, b - a
    # at eta = 0 no step is read, and the equal heights say both are thick
    thick = va < ball.n
    for t in range(2 * eta):  # the steps out of gamma(a-eta+t)
        p, q, p2, q2 = seg[t], seg[t + 1], seg[t + shift], seg[t + shift + 1]
        if max(p, q, p2, q2) >= ball.n:
            thick = False
        elif ball.label(p, q) != ball.label(p2, q2):
            return None
    g = concat(space.group_word(vb), inverse_word(space.group_word(va)))
    if thick:
        return g
    for t in range(-eta, eta + 1):
        if space.translate(g, seg[a + t]) != seg[b + t]:
            return None
    return g


# ---------------------------------------------------------------------------
# circle boundary decision


@dataclass
class CircleVerdict:
    answer: str               # yes | no | exhausted | window-insufficient
    witness: object = None
    trace: list = field(default_factory=list)


def decide_circle(space, table, budget=2000, n_cap=None, vc_report=None):
    """Is the boundary a circle?  yes needs the double-dagger condition
    plus no cut point plus non-cut-pair search empty at the full bound;
    no comes with a witness; anything less is honest exhaustion.
    vc_report (from algebra.vc_analyze on the whole group) is consulted
    first: virtually cyclic groups have at most two boundary points."""
    from .hyperbolicity import ddag_search
    trace = []
    if vc_report is not None and vc_report.verdict == "vc":
        return CircleVerdict("no", witness="virtually cyclic",
                             trace=["vc-screen"])
    trace.append("vc-screen passed")
    if n_cap is None:
        n_cap = int(table["Kd"]) + budget
    ddag = ddag_search(space, 0, table, n_cap)
    trace.append("ddag: %s" % ddag.status)
    if ddag.status == "window-insufficient":
        return CircleVerdict("window-insufficient", trace=trace)
    if ddag.status != "found":
        return CircleVerdict("exhausted", trace=trace)
    cp = detect_cut_point(space, table)
    trace.append("cut-point: %s" % cp.verdict)
    if cp.verdict == "found":
        return CircleVerdict("no", witness=cp.feature, trace=trace)
    if cp.verdict == "window-insufficient":
        return CircleVerdict("window-insufficient", trace=trace)
    nc = search_noncut_pair(space, table, budget)
    trace.append("non-cut-pair: %s" % nc.verdict)
    if nc.verdict == "found":
        return CircleVerdict("no", witness=nc.feature, trace=trace)
    if nc.verdict == "none-at-full-bound":
        return CircleVerdict("yes", trace=trace)
    if nc.verdict == "window-insufficient":
        return CircleVerdict("window-insufficient", trace=trace)
    return CircleVerdict("exhausted", trace=trace)


# ---------------------------------------------------------------------------
# witness serialization (replayable structured text)


def serialize_feature(f):
    if isinstance(f, CutPairFeature):
        doc = {"type": "cut-pair", "kind": f.kind, "path": list(f.path),
               "eta": f.eta, "g": list(f.g) if f.g else None,
               "partition": [sorted(p) for p in f.partition]
               if f.partition else None,
               "c_index": f.c_index}
    elif isinstance(f, NonCutFeature):
        doc = {"type": "non-cut", "kind": f.kind,
               "segments": [list(s) for s in f.segments],
               "etas": list(f.etas),
               "g1": list(f.g1) if f.g1 else None,
               "g3": list(f.g3) if f.g3 else None,
               "c_index": f.c_index, "path": list(f.path)}
    else:
        raise TypeError("not a feature: %r" % (f,))
    return json.dumps(doc, indent=1)


def parse_feature(text):
    doc = json.loads(text)
    if doc["type"] == "cut-pair":
        return CutPairFeature(
            doc["kind"], tuple(doc["path"]), doc["eta"],
            tuple(doc["g"]) if doc["g"] else None,
            tuple(frozenset(p) for p in doc["partition"])
            if doc["partition"] else None,
            doc["c_index"])
    return NonCutFeature(
        doc["kind"], tuple(tuple(s) for s in doc["segments"]),
        tuple(doc["etas"]),
        tuple(doc["g1"]) if doc["g1"] else None,
        tuple(doc["g3"]) if doc["g3"] else None,
        doc["c_index"], tuple(doc["path"]))

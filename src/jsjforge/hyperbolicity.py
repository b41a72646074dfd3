"""Hyperbolicity certification and the constant table.

certify_delta exhaustively checks thinness of geodesic triangles over a
finite window.  derive_constants evaluates the whole dependency chain of
search constants into exact integers and rationals: every comparison is
done in exact arithmetic, and the few genuinely real-valued terms
(logarithms base the visual-metric parameter) are replaced by rational
upper bounds with denominator 2**20, rounded conservatively so that the
derived constants still satisfy their defining inequalities.

The star/double-dagger machinery: star-pairs are window vertex pairs
nearly equidistant from a base vertex and uniformly close to each other;
the double-dagger check asks for a bounded-length path between them that
avoids a large ball around the base.  The forbidden ball is the closed
ball of the stated radius, with the two endpoints of the pair exempted
(a path must stand on its endpoints; only its other vertices avoid the
ball).

Both check_ddag and ddag_search answer from one avoiding BFS: a BFS from
x to depth n in which the forbidden ball's vertices are reached but never
expanded, so a pair (x, y) passes iff the BFS reaches y.  The forbidden
radius depends on the pair only through m, and |d(v,x) - d(v,y)| <= eps
leaves at most eps + 1 values of m for one x, so ddag_search builds at
most eps + 1 maps per x and answers every star pair of x from them.
"""

import itertools
from dataclasses import dataclass, field
from fractions import Fraction

import mpmath

from .geometry import bfs_distances, shortest_path

ROUND_DEN = 2 ** 20


class WindowInsufficient(RuntimeError):
    """The window is too small to certify the requested search."""

    def __init__(self, message, required_radius=None):
        super().__init__(message)
        self.required_radius = required_radius


def round_up(x):
    """Smallest Fraction with denominator 2**20 at least x (an mpf)."""
    return Fraction(int(mpmath.ceil(mpmath.mpf(x) * ROUND_DEN)), ROUND_DEN)


def log2_upper(value):
    """Conservative rational upper bound for log2(value)."""
    with mpmath.workdps(60):
        return round_up(mpmath.log(mpmath.mpf(value), 2) + mpmath.mpf(2) ** -40)


def ceil_frac(x):
    x = Fraction(x)
    return -((-x.numerator) // x.denominator)


def floor_frac(x):
    x = Fraction(x)
    return x.numerator // x.denominator


# ---------------------------------------------------------------------------
# delta certification


@dataclass(frozen=True)
class DeltaCertificate:
    delta: int
    radius: int
    method: str
    triangles: int = 0
    worst: tuple = ()


def certify_delta(space, radius, budget=2_000_000, all_geodesics=False):
    """Minimal integer delta making every geodesic triangle on vertex
    triples within the given radius of the base thin: each side lies in
    the delta-neighbourhood of the union of the other two sides (checked
    at vertices).  One geodesic per pair (deterministic BFS) unless
    all_geodesics is set."""
    verts = sorted(v for v in space.vertices()
                   if (space.base_dist(v) or 0) <= radius and space.base_dist(v) is not None)
    m = len(verts)
    n_triples = m * (m - 1) * (m - 2) // 6
    if n_triples > budget:
        raise WindowInsufficient(
            "budget exceeded: %d triples > %d" % (n_triples, budget))
    geos = {}
    for x, y in itertools.combinations(verts, 2):
        if all_geodesics:
            geos[(x, y)] = _all_geodesics(space, x, y)
        else:
            geos[(x, y)] = [shortest_path(space, x, y)]
    # distance maps from every vertex appearing on some geodesic
    needed = set()
    for paths in geos.values():
        for p in paths:
            needed.update(p)
    # a side [a, b] has length d(a, b) <= 2*radius, so each of its points
    # lies within 2*radius of a or b, which the other two sides hold: the
    # clipped maps give the same minima as whole-window ones
    dmaps = {v: bfs_distances(space, [v], cutoff=2 * radius) for v in needed}
    delta = 0
    worst = ()
    count = 0
    for x, y, z in itertools.combinations(verts, 3):
        count += 1
        for sides in _side_choices(geos, x, y, z, all_geodesics):
            d = _triangle_thinness(dmaps, sides)
            if d > delta:
                delta, worst = d, (x, y, z)
    return DeltaCertificate(delta, radius, "exhaustive-triangles", count, worst)


def _side_choices(geos, x, y, z, all_geodesics):
    def side(a, b):
        return geos[(a, b)] if (a, b) in geos else [list(reversed(p)) for p in geos[(b, a)]]
    if not all_geodesics:
        yield (side(x, y)[0], side(x, z)[0], side(y, z)[0])
        return
    for s1 in side(x, y):
        for s2 in side(x, z):
            for s3 in side(y, z):
                yield (s1, s2, s3)


def _triangle_thinness(dmaps, sides):
    worst = 0
    for i in range(3):
        others = set(sides[(i + 1) % 3]) | set(sides[(i + 2) % 3])
        for p in sides[i]:
            if p in others:
                continue
            dm = dmaps[p]
            best = min((dm.get(q, 1 << 30) for q in others), default=1 << 30)
            worst = max(worst, best)
    return worst


def _all_geodesics(space, x, y, cap=10_000):
    """All geodesics from x to y via the BFS predecessor DAG."""
    dist = bfs_distances(space, [x])
    if y not in dist:
        return []
    paths = [[y]]
    done = []
    while paths:
        p = paths.pop()
        v = p[-1]
        if v == x:
            done.append(list(reversed(p)))
            if len(done) > cap:
                raise WindowInsufficient("all-geodesics cap exceeded")
            continue
        for u in space.neighbors(v):
            if dist.get(u, -1) == dist[v] - 1:
                paths.append(p + [u])
    return done


# ---------------------------------------------------------------------------
# constant table


MORSE_FORMULA = "D = 4*lam^2*(lam + eps + delta + 1)^2"


def _morse_constant(lam, eps, delta):
    # explicit quantitative stability bound for (lam,eps)-quasi-geodesics;
    # deliberately conservative, overridable, and recorded in provenance
    return 4 * lam ** 2 * (lam + eps + delta + 1) ** 2


class ConstantTable:
    """Exact table of all derived search constants with provenance.

    values: name -> int or Fraction; provenance: name -> 'formula' |
    'override' | 'input'; warnings: constraint violations caused by
    overrides (reported, not fatal).
    """

    def __init__(self, values, provenance, warnings):
        self.values = dict(values)
        self.provenance = dict(provenance)
        self.warnings = list(warnings)

    def __getitem__(self, name):
        return self.values[name]

    def __getattr__(self, name):
        try:
            return self.__dict__["values"][name]
        except KeyError:
            raise AttributeError(name)

    def Rd(self, n):
        return 4 * (n + self.values["M"]) + 3 * self.values["kd"] \
            + 50 * self.values["delta"] + 3

    def as_text(self):
        lines = ["%-10s %-9s %s" % ("name", "source", "value")]
        for name in sorted(self.values):
            v = self.values[name]
            if isinstance(v, (int, Fraction)) and \
                    Fraction(v).numerator.bit_length() > 4000:
                f = Fraction(v)
                mag = (f.numerator.bit_length() - f.denominator.bit_length())
                s = "~10^%d (exact value stored)" % ((mag * 301) // 1000)
            else:
                s = str(v)
                if len(s) > 72:
                    s = "%s... (%d digits)" % (s[:48], len(s))
            lines.append("%-10s %-9s %s" % (name, self.provenance[name], s))
        if self.warnings:
            lines.append("warnings:")
            lines.extend("  " + w for w in self.warnings)
        return "\n".join(lines)

    def fingerprint(self):
        import hashlib
        h = hashlib.sha256()
        for name in sorted(self.values):
            h.update(name.encode() + b"=")
            v = self.values[name]
            if v is None:
                h.update(b"none;")
                continue
            f = Fraction(v)
            for part in (f.numerator, f.denominator):
                h.update(b"-" if part < 0 else b"+")
                h.update(abs(part).to_bytes((abs(part).bit_length() + 7) // 8 or 1,
                                            "big"))
            h.update(b";")
        return h.hexdigest()


def derive_constants(delta, delta_per=0, n=None, B=None, V=None,
                     overrides=None, morse=None):
    """Evaluate the full constant chain in dependency order.

    delta: certified hyperbolicity constant (clamped to >= 1 for the
    visual-metric base only); delta_per: hyperbolicity constant of the
    peripheral subgroups; n: double-dagger index (defaults to Kd); B, V:
    valence and ball-size stats of the thick part (needed for the N
    bounds; may be None, leaving those entries unset); overrides: name ->
    value applied atomically with provenance 'override'.
    """
    overrides = dict(overrides or {})
    values = {}
    prov = {}
    warnings = []

    def put(name, formula_value):
        if name in overrides:
            values[name] = overrides.pop(name)
            prov[name] = "override"
        else:
            values[name] = formula_value
            prov[name] = "formula"
        return values[name]

    values["delta"] = delta
    values["delta_per"] = delta_per
    prov["delta"] = prov["delta_per"] = "input"
    dv = max(delta, 1)  # visual-metric clamp
    values["delta_vis"] = dv
    prov["delta_vis"] = "formula"
    values["a_exp"] = Fraction(1, 4 * dv)
    prov["a_exp"] = "formula"

    C = put("C", 3 * delta)
    M = put("M", 6 * (C + 45 * delta) + 2 * delta + 3)
    lam = put("lam", Fraction(12 * delta + 1, 5 * delta + 1))
    eps = put("eps", 2 * delta)
    kd = put("kd", 2 * M)
    Kd = put("Kd", 3 * 2 ** (2 * M + 3) + M + 3)
    if n is None:
        n = values["Kd"]
    n = put("n", n)
    D = put("D", _morse_constant(lam, eps, delta) if morse is None else morse(lam, eps, delta))

    # log_a(x) = 4*dv*log2(x); the argument mixes k2/k1 = 1/(3-2*sqrt(2))
    # = 3+2*sqrt(2) with the lacunarity factor 1/(1-a^-1)
    with mpmath.workdps(60):
        log2_k2k1 = log2_upper(3 + 2 * mpmath.sqrt(2))
        a_inv = mpmath.mpf(2) ** (-Fraction(1, 4 * dv))
        log2_lac = log2_upper(1 / (1 - a_inv))
        nn = max(int(n) - 1, 2)
        log2_n1 = log2_upper(nn)
        shadow_term = 4 * dv * (log2_k2k1 + log2_n1 + log2_lac)
        # 2*k1/k2 = 2*(3-2*sqrt(2)) < 1, so this log is negative; rounding
        # up (toward zero) keeps the T bound an upper bound
        log2_2k1 = round_up(mpmath.log(2 * (3 - 2 * mpmath.sqrt(2)), 2)
                            + mpmath.mpf(2) ** -40)
        hollow_term = 4 * dv * log2_2k1

    r_bound = max(Fraction(D), 2 * shadow_term + M + 12 * delta + D)
    r = put("r", floor_frac(r_bound) + 1)  # strict inequality
    K = put("K", ceil_frac(Fraction(values["r"]) + D + delta + C))
    R = put("R", ceil_frac(4 * delta + D
                           + max(Fraction(values["r"] + 4 * delta + 1),
                                 Fraction(values["K"]))))
    T_bound = hollow_term + 3 * D + 2 * delta + values["K"]
    T = put("T", max(0, ceil_frac(T_bound)))  # clamped at 0
    k = put("k", ceil_frac(max(Fraction(8 * delta + 1),
                               log2_upper(2 * delta_per + 1),
                               Fraction(values["T"] + values["R"]))))
    R = values["R"]
    T = values["T"]
    k = values["k"]
    r = values["r"]
    K = values["K"]
    lam = values["lam"]
    eps = values["eps"]
    rho = put("rho", (2 * R + eps) * lam ** 2 + eps + R)
    eta = put("eta", max(Fraction(8 * delta + 1, 2),
                         lam * (T + K) + lam * eps,
                         lam * (R + r) + lam * eps,
                         lam * (R + values["rho"]) + lam * eps))
    N_min = put("N_min", max(Fraction(8 * delta + 1),
                             lam * (2 * R + 1) + lam * eps + 1))
    values["B"] = B
    values["V"] = V
    prov["B"] = prov["V"] = "input"
    if "B" in overrides:
        values["B"] = overrides.pop("B")
        prov["B"] = "override"
    if "V" in overrides:
        values["V"] = overrides.pop("V")
        prov["V"] = "override"
    B = values["B"]
    V = values["V"]
    if B is not None and V is not None:
        eta2 = ceil_frac(2 * values["eta"])  # integer exponent, rounded up
        bulk = (k + R + 1) * B ** eta2
        put("N_max", values["N_min"] * bulk * 2 ** V + 1)
        put("N1", 2 * (V - 1) * (bulk * V ** (V + 1) + 2 * values["eta"])
            + 2 * values["eta"] + 2 * (bulk + 1))
        put("N2", bulk + 1)
        put("N3", 2 * bulk * V ** (V + 1) + 4 * values["eta"])
    else:
        for name in ("N_max", "N1", "N2", "N3"):
            if name in overrides:
                values[name] = overrides.pop(name)
                prov[name] = "override"
    for name, v in overrides.items():
        values[name] = v
        prov[name] = "override"

    _audit(values, prov, warnings, shadow_term, hollow_term)
    return ConstantTable(values, prov, warnings)


def _audit(values, prov, warnings, shadow_term, hollow_term):
    """Check non-overridden constraints; overrides may violate them, which
    is reported as a warning rather than an error."""
    delta = values["delta"]
    checks = [
        ("r", Fraction(values["r"]) > values["D"], "r > D"),
        ("r", Fraction(values["r"]) > 2 * shadow_term + values["M"]
         + 12 * delta + values["D"], "r > shadow bound"),
        ("K", Fraction(values["K"]) >= values["r"] + values["D"] + delta
         + values["C"], "K >= r + D + delta + C"),
        ("R", Fraction(values["R"]) >= 4 * delta + values["D"]
         + max(values["r"] + 4 * delta + 1, values["K"]),
         "R >= 4delta + D + max(r+4delta+1, K)"),
        ("T", Fraction(values["T"]) >= hollow_term + 3 * values["D"]
         + 2 * delta + values["K"], "T >= hollow bound"),
        ("k", Fraction(values["k"]) >= values["T"] + values["R"],
         "k >= T + R"),
    ]
    for name, ok, text in checks:
        if not ok:
            warnings.append("override leaves %s violated: %s" % (name, text))


def parse_const_file(text):
    """Parse `name = value` override lines; values int or fraction p/q."""
    out = {}
    for lineno, raw in enumerate(text.splitlines(), start=1):
        line = raw.split("#", 1)[0].strip()
        if not line:
            continue
        if "=" not in line:
            raise ValueError("line %d: expected name = value" % lineno)
        name, _, val = line.partition("=")
        val = val.strip()
        if "/" in val:
            p, q = val.split("/")
            out[name.strip()] = Fraction(int(p), int(q))
        else:
            out[name.strip()] = int(val)
    return out


# ---------------------------------------------------------------------------
# star pairs and the double-dagger condition


def _eligible(space, dist_v, radius, height_bound):
    """Eligible vertices as a dict vertex -> d(v, vertex), in (distance,
    vertex) order."""
    return {u: d for d, u in sorted(
        (d, u) for u, d in dist_v.items()
        if (radius is None or d <= radius)
        and (height_bound is None or space.height(u) <= height_bound))}


def star_pairs_iter(space, v, eps, M, radius=None, height_bound=None,
                    dist_v=None, elig=None):
    """Pairs (x, y, m) with |d(v,x)-d(v,y)| <= eps and d(x,y) <= M,
    m = min of the two radii.  Ordered by (radius of x, x, y).  Includes
    (x, x).  radius/height_bound restrict which vertices are eligible.
    elig may carry the precomputed eligible dict of _eligible."""
    if elig is None:
        if dist_v is None:
            dist_v = bfs_distances(space, [v])
        elig = _eligible(space, dist_v, radius, height_bound)
    for x, d in elig.items():
        near = bfs_distances(space, [x], cutoff=M)
        for y in sorted(near):
            if y < x:
                continue
            dy = elig.get(y)
            if dy is not None and abs(d - dy) <= eps:
                yield (x, y, min(d, dy))


def star_pairs(space, v, eps, M, radius=None, height_bound=None):
    return list(star_pairs_iter(space, v, eps, M, radius, height_bound))


@dataclass(frozen=True)
class DdagAnswer:
    ok: bool
    path: object
    caveat: bool


def _ball_offset(eps, table):
    """k with floor(m - C - 45*delta + 3*eps) = m + k for integer m:
    distances are integers, so the closed forbidden ball of a pair with
    min radius m is dist_v <= m + k."""
    k = 3 * eps - table["C"] - 45 * table["delta"]
    return k if isinstance(k, int) else floor_frac(k)


def _avoiding_bfs(adj, x, n, cutoff, dist_v, stop=None):
    """BFS from x to depth n in which the vertices of the closed ball
    dist_v <= cutoff, other than x, are reached but never expanded.
    Returns the parent map of the reached vertices (x maps to None), in
    the order they were reached; stops as soon as it reaches stop."""
    parent = {x: None}
    dget = dist_v.get
    frontier = [x]
    depth = 0
    while frontier and depth < n:
        depth += 1
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
    return parent


def check_ddag(space, v, eps, n, pair, table, dist_v=None):
    """Is there a path of length <= n from x to y whose vertices (other
    than x and y themselves) stay outside the closed ball of radius
    m - C - 45*delta + 3*eps around v, m = min(d(v,x), d(v,y))?"""
    x, y = pair
    if x == y:
        return DdagAnswer(True, [x], False)
    if dist_v is None:
        dist_v = bfs_distances(space, [v])
    cutoff = min(dist_v[x], dist_v[y]) + _ball_offset(eps, table)
    parent = _avoiding_bfs(space.adjacency(), x, n, cutoff, dist_v, stop=y)
    if y in parent:
        path = [y]
        while parent[path[-1]] is not None:
            path.append(parent[path[-1]])
        return DdagAnswer(True, list(reversed(path)), False)
    # scan newest-first: window-boundary vertices enter the search last;
    # forbidden vertices were reached but not searched, so they are skipped
    dget = dist_v.get
    for u in reversed(parent):
        du = dget(u)
        if du is not None and du <= cutoff and u != x:
            continue
        bd = space.base_dist(u)
        if (bd is not None and bd >= space.R_max) or \
                space.height(u) >= space.h_max > 0:
            return DdagAnswer(False, None, True)
    return DdagAnswer(False, None, False)


@dataclass
class DdagReport:
    v: int
    eps: object
    status: str  # found | exhausted | window-insufficient
    n: object = None
    required_radius: object = None
    failures: list = field(default_factory=list)
    pairs_checked: int = 0


def ddag_search(space, v, table, n_cap, eps=None, max_failures=3,
                dist_v=None):
    """The proof-driven search loop: for each n from Kd to n_cap check the
    double-dagger condition at eps = 10*delta over all star pairs in the
    ball of radius Rd(n) around v within the thick part of depth kd.

    Every pair of one x is answered from a shared avoiding-BFS map per
    forbidden cutoff (at most eps + 1 of them), built on first use and
    dropped when x changes; the answers are check_ddag's.

    Returns the first n at which every in-window pair passes, provided the
    window actually covers radius Rd(n); if all in-window pairs pass but
    the window is smaller than Rd(n), stops with window-insufficient and
    the radius that would be needed.  Failures are refutations and are
    sound regardless of window size.
    """
    if eps is None:
        eps = 10 * table["delta"]
    if dist_v is None:
        dist_v = bfs_distances(space, [v])
    adj = space.adjacency()
    offset = _ball_offset(eps, table)
    elig_cache = {}
    avail = space.R_max - (space.base_dist(v) or 0)
    report = DdagReport(v=v, eps=eps, status="exhausted")
    for n in range(int(table["Kd"]), int(n_cap) + 1):
        Rn = table.Rd(n)
        radius = min(Rn, avail)
        height_bound = int(table["kd"])
        if (radius, height_bound) not in elig_cache:
            elig_cache[(radius, height_bound)] = _eligible(
                space, dist_v, radius, height_bound)
        all_ok = True
        first_fail = None
        map_x, maps = None, {}
        for x, y, m in star_pairs_iter(space, v, eps, int(table["M"]),
                                       radius=radius,
                                       height_bound=height_bound,
                                       dist_v=dist_v,
                                       elig=elig_cache[(radius,
                                                        height_bound)]):
            report.pairs_checked += 1
            if x == y:  # passes with no search, as in check_ddag
                continue
            if x != map_x:
                map_x, maps = x, {}
            # every negative cutoff forbids nothing, so they share a map
            cutoff = max(m + offset, -1)
            reached = maps.get(cutoff)
            if reached is None:
                reached = maps[cutoff] = _avoiding_bfs(adj, x, n, cutoff,
                                                       dist_v)
            if y not in reached:
                all_ok = False
                first_fail = (n, (x, y), m)
                break
        if all_ok:
            if Rn > avail:
                report.status = "window-insufficient"
                report.required_radius = Rn
                report.n = n
                return report
            report.status = "found"
            report.n = n
            return report
        if len(report.failures) < max_failures:
            report.failures.append(first_fail)
    return report

"""Hyperbolicity certification and the constant table.

certify_delta exhaustively checks thinness of geodesic triangles over a
finite window.  derive_constants evaluates the whole dependency chain of
search constants into exact integers and rationals: every comparison is
done in exact arithmetic, and the few genuinely real-valued terms
(logarithms base the visual-metric parameter) are replaced by rational
upper bounds with denominator 2**20, rounded conservatively so that the
derived constants still satisfy their defining inequalities.  Those
bounds come from integer interval arithmetic (math.isqrt, an integer
m-th root, fixed-point log2 by repeated squaring), with no floating
point and no dependency beyond the standard library.  The four N bounds,
numbers of hundreds of thousands of bits at the paper's constants, are
evaluated on first read, so a caller that reads none of them pays for
none.

The star/double-dagger machinery: star-pairs are window vertex pairs
nearly equidistant from a base vertex and uniformly close to each other;
the double-dagger check asks for a bounded-length path between them that
avoids a large ball around the base.  The avoided ball is the closed
ball of the stated radius, with the two endpoints of the pair exempted
(a path must stand on its endpoints; only its other vertices avoid the
ball).

Distances from the base come from the window (space.distances(v)), so
no caller computes or passes them.  Both check_ddag and ddag_search
answer from one avoiding BFS, geometry.ParentBFS: a BFS from x to depth
n in which the avoided ball's vertices are reached but never expanded,
so a pair (x, y) passes iff the BFS reaches y.  The avoided radius
depends on the pair only through m, and |d(v,x) - d(v,y)| <= eps leaves
at most eps + 1 values of m for one x, so ddag_search builds at most
eps + 1 maps per x and answers every star pair of x from them.  The maps
of the x whose pair fails at n are kept, and grown one level at n + 1.
"""

import functools
import itertools
import math
from dataclasses import dataclass, field
from fractions import Fraction

from .geometry import ParentBFS, bfs_distances, bfs_parents, path_to

ROUND_DEN = 2 ** 20
# fraction bits log2_upper starts from; it doubles them on a tie
LOG_BITS = 48
# certify_delta checks at most this many vertex triples, and at most
# GEODESIC_CAP geodesics per pair when it takes all of them
TRIPLE_BUDGET = 2_000_000
GEODESIC_CAP = 10_000
# ddag_search keeps the first MAX_FAILURES refuted pairs as its evidence
MAX_FAILURES = 3


class WindowInsufficient(RuntimeError):
    """The window is too small to certify the requested search."""

    def __init__(self, message, required_radius=None):
        super().__init__(message)
        self.required_radius = required_radius


def round_up(x):
    """Smallest Fraction with denominator 2**20 at least x (a rational)."""
    return Fraction(ceil_frac(Fraction(x) * ROUND_DEN), ROUND_DEN)


def log2_upper(value):
    """Smallest Fraction with denominator 2**20 at least log2(value) +
    2**-40.

    value is a positive int or Fraction, or, for an irrational value, a
    function p -> (lo, hi) of positive Fractions with lo <= value <= hi
    whose width shrinks as the working precision p grows.  The log is
    bracketed in exact integer arithmetic, from LOG_BITS fraction bits,
    doubled while the two ends of the bracket round to different grid
    points.
    """
    bracket = value if callable(value) else (lambda p: (value, value))
    bits = LOG_BITS
    while True:
        # log2(value) + 2**-40 lies between the two ends over 2**bits
        lo, hi = (round_up(Fraction(_log2_fixed(x, bits, up)
                                    + (1 << (bits - 40)), 1 << bits))
                  for x, up in zip(bracket(bits), (False, True)))
        if lo == hi:
            return lo
        bits *= 2


def _log2_fixed(x, bits, up):
    """An integer L with L <= 2**bits * log2(x) (up False) or L >=
    2**bits * log2(x) (up True), for a positive rational x.

    x = 2**k * y with 1 <= y < 2; each fraction bit squares y, kept in
    fixed point with `bits` + 8 fraction bits and rounded toward the
    bound's side, and halves it when it reaches 2.  Rounding down only
    lowers every later y, so the bits read are a lower bound; rounding up
    keeps y at most 2, so the bits read plus one unit are an upper bound.
    """
    x = Fraction(x)
    p, q = x.numerator, x.denominator
    k = p.bit_length() - q.bit_length()
    if (p << max(-k, 0)) < (q << max(k, 0)):
        k -= 1
    w = bits + 8
    shift = w - k
    num, den = (p << shift, q) if shift >= 0 else (p, q << -shift)
    y = -(-num // den) if up else num // den
    two = 1 << (w + 1)
    acc = 0
    for _ in range(bits):
        y = -(-(y * y) >> w) if up else (y * y) >> w
        acc <<= 1
        if y >= two:
            acc |= 1
            y = (y + up) >> 1
    return (k << bits) + acc + up


def _sqrt2(p):
    """(lo, hi) bracketing sqrt(2), 2**-p apart."""
    s = math.isqrt(2 << (2 * p))
    return Fraction(s, 1 << p), Fraction(s + 1, 1 << p)


def _k2_over_k1(p):
    """k2/k1 = 1/(3 - 2*sqrt(2)) = 3 + 2*sqrt(2)."""
    lo, hi = _sqrt2(p + 4)
    return 3 + 2 * lo, 3 + 2 * hi


def _two_k1_over_k2(p):
    """2*k1/k2 = 2*(3 - 2*sqrt(2)), which is below 1."""
    lo, hi = _sqrt2(p + 8)
    return 2 * (3 - 2 * hi), 2 * (3 - 2 * lo)


def _lacunarity(m, p):
    """1/(1 - a^-1) for the visual parameter a = 2**(1/m).  With t =
    floor(2**(q + 1/m)), a lies in [t, t + 1] / 2**q, and the factor
    falls as a grows; q exceeds p by the bits of the factor's size,
    about m / log(2), and some to spare."""
    q = p + 8 + m.bit_length()
    t = _iroot(2 << (m * q), m)
    one = 1 << q
    return Fraction(t + 1, t + 1 - one), Fraction(t, t - one)


def _iroot(a, m):
    """floor(a ** (1/m)) for an integer a >= 1: Newton's method descends
    to it from any start above the root."""
    x = 1 << -(-a.bit_length() // m)
    while True:
        y = ((m - 1) * x + a // x ** (m - 1)) // m
        if y >= x:
            return x
        x = y


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


def certify_delta(space, radius, all_geodesics=False):
    """Minimal integer delta making every geodesic triangle on vertex
    triples within the given radius of the base thin: each side lies in
    the delta-neighbourhood of the union of the other two sides (checked
    at vertices).  One geodesic per pair (deterministic BFS) unless
    all_geodesics is set."""
    verts = sorted(u for u, d in space.distances(0).items() if d <= radius)
    m = len(verts)
    n_triples = m * (m - 1) * (m - 2) // 6
    if n_triples > TRIPLE_BUDGET:
        raise WindowInsufficient(
            "budget exceeded: %d triples > %d" % (n_triples, TRIPLE_BUDGET))
    # one distance map per vertex, clipped at 2*radius and dropped at
    # return.  A side [a, b] has length d(a, b) <= 2*radius, so each of
    # its points lies within 2*radius of a or b, which the other two
    # sides hold: the clipped maps give the same minima as whole-window
    # ones.  A geodesic from x to y never leaves d(x, .) <= d(x, y), so
    # x's clipped map also holds all of them.
    dmaps = {}

    def dmap(v):
        if v not in dmaps:
            dmaps[v] = bfs_distances(space, [v], cutoff=2 * radius)
        return dmaps[v]

    # x's parent map holds shortest_path(space, x, y) for each later y
    geos = {}
    for i, x in enumerate(verts[:-1]):
        parent = None if all_geodesics else \
            bfs_parents(space.adjacency(), x, 2 * radius)
        for y in verts[i + 1:]:
            geos[(x, y)] = _all_geodesics(space, x, y, dmap(x)) \
                if all_geodesics else [path_to(parent, y)]
    # distance maps from every vertex appearing on some geodesic
    for paths in geos.values():
        for p in paths:
            for v in p:
                dmap(v)
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


def _all_geodesics(space, x, y, dist):
    """All geodesics from x to y via the BFS predecessor DAG, given a
    distance map dist from x that reaches at least as far as y."""
    if y not in dist:
        return []
    paths = [[y]]
    done = []
    while paths:
        p = paths.pop()
        v = p[-1]
        if v == x:
            done.append(list(reversed(p)))
            if len(done) > GEODESIC_CAP:
                raise WindowInsufficient("all-geodesics cap exceeded")
            continue
        for u in space.neighbors(v):
            if dist.get(u, -1) == dist[v] - 1:
                paths.append(p + [u])
    return done


# ---------------------------------------------------------------------------
# constant table


def _morse_constant(lam, eps, delta):
    # explicit quantitative stability bound for (lam,eps)-quasi-geodesics;
    # deliberately conservative and overridable (provenance records only
    # which of the two gave D)
    return 4 * lam ** 2 * (lam + eps + delta + 1) ** 2


# the N bounds are linear in bulk = (k + R + 1) * B**ceil(2*eta), a number
# of hundreds of thousands of bits at the paper's constants; a table
# evaluates one only when it is read
N_BOUNDS = ("N_max", "N1", "N2", "N3")


def _n_bound(name, v, bulk):
    """The N bound called name, from the table's values v and its bulk."""
    V, eta = v["V"], v["eta"]
    if name == "N_max":
        return v["N_min"] * bulk * 2 ** V + 1
    if name == "N1":
        return 2 * (V - 1) * (bulk * V ** (V + 1) + 2 * eta) + 2 * eta \
            + 2 * (bulk + 1)
    if name == "N2":
        return bulk + 1
    return 2 * bulk * V ** (V + 1) + 4 * eta


class ConstantTable:
    """Exact table of all derived search constants with provenance.

    values: name -> int or Fraction; provenance: name -> 'formula' |
    'override' | 'input'; warnings: constraint violations caused by
    overrides (reported, not fatal).  The N bounds named in pending are
    evaluated on first read, from one bulk per table; values,
    fingerprint() and as_text() evaluate them all.
    """

    def __init__(self, values, provenance, warnings, pending=()):
        self._values = dict(values)
        self._pending = list(pending)
        self._bulk = None
        self.provenance = dict(provenance)
        self.warnings = list(warnings)

    @property
    def values(self):
        for name in list(self._pending):
            self[name]
        return self._values

    def __getitem__(self, name):
        v = self._values
        try:
            return v[name]
        except KeyError:
            if name not in self._pending:
                raise
        if self._bulk is None:
            self._bulk = (v["k"] + v["R"] + 1) * \
                v["B"] ** ceil_frac(2 * v["eta"])
        v[name] = _n_bound(name, v, self._bulk)
        self._pending.remove(name)
        return v[name]

    def Rd(self, n):
        return 4 * (n + self["M"]) + 3 * self["kd"] + 50 * self["delta"] + 3

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
                     overrides=None):
    """Evaluate the full constant chain in dependency order.

    delta: certified hyperbolicity constant (clamped to >= 1 for the
    visual-metric base only); delta_per: hyperbolicity constant of the
    peripheral subgroups; n: double-dagger index (defaults to Kd); B, V:
    valence and ball-size stats of the thick part (needed for the N
    bounds; may be None, leaving those entries unset); overrides: name ->
    value applied atomically with provenance 'override'.  A delta or
    delta_per that is not an integer >= 0, an n, B or V that is not an
    integer >= 1, or an eta below 0, is a ValueError that names the
    entry.
    """
    delta = _whole("delta", delta, 0)
    delta_per = _whole("delta_per", delta_per, 0)
    if n is not None:
        n = _whole("n", n, 1)
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
    put("kd", 2 * M)
    Kd = put("Kd", 3 * 2 ** (2 * M + 3) + M + 3)
    n = put("n", Kd if n is None else n)
    D = put("D", _morse_constant(lam, eps, delta))

    # log_a(x) = 4*dv*log2(x); the argument mixes k2/k1 = 1/(3-2*sqrt(2))
    # = 3+2*sqrt(2) with the lacunarity factor 1/(1-a^-1).  Each log2 is
    # a rational upper bound on the 2**-20 grid, from exact integer
    # interval arithmetic (log2_upper).
    log2_k2k1 = log2_upper(_k2_over_k1)
    log2_lac = log2_upper(functools.partial(_lacunarity, 4 * dv))
    log2_n1 = log2_upper(max(int(n) - 1, 2))
    shadow_term = 4 * dv * (log2_k2k1 + log2_n1 + log2_lac)
    # 2*k1/k2 = 2*(3-2*sqrt(2)) < 1, so this log is negative; rounding up
    # (toward zero) keeps the T bound an upper bound
    hollow_term = 4 * dv * log2_upper(_two_k1_over_k2)

    r_bound = max(Fraction(D), 2 * shadow_term + M + 12 * delta + D)
    r = put("r", floor_frac(r_bound) + 1)  # strict inequality
    K = put("K", ceil_frac(Fraction(r) + D + delta + C))
    R = put("R", ceil_frac(4 * delta + D
                           + max(Fraction(r + 4 * delta + 1), Fraction(K))))
    T_bound = hollow_term + 3 * D + 2 * delta + K
    T = put("T", max(0, ceil_frac(T_bound)))  # clamped at 0
    k = put("k", ceil_frac(max(Fraction(8 * delta + 1),
                               log2_upper(2 * delta_per + 1),
                               Fraction(T + R))))
    rho = put("rho", (2 * R + eps) * lam ** 2 + eps + R)
    eta = put("eta", max(Fraction(8 * delta + 1, 2),
                         lam * (T + K) + lam * eps,
                         lam * (R + r) + lam * eps,
                         lam * (R + rho) + lam * eps))
    if eta < 0:
        # the N bounds raise B to the power ceil(2 * eta)
        raise ValueError("eta: expected a value >= 0, got %s" % eta)
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
    for name in ("B", "V"):
        if values[name] is not None:
            _whole(name, values[name], 1)
    pending = []
    if values["B"] is not None and values["V"] is not None:
        # an N bound that no override sets is evaluated on first read
        pending = [name for name in N_BOUNDS if name not in overrides]
        prov.update(dict.fromkeys(pending, "formula"))
    # what is left: overrides of names no formula above set, the N bounds
    # among them
    for name, v in overrides.items():
        values[name] = v
        prov[name] = "override"

    _audit(values, warnings, shadow_term, hollow_term)
    return ConstantTable(values, prov, warnings, pending)


def _whole(name, value, least):
    """value as an int, or a ValueError naming the entry when it is not an
    integer or is below least."""
    if Fraction(value).denominator != 1 or value < least:
        raise ValueError("%s: expected an integer >= %d, got %s"
                         % (name, least, value))
    return int(value)


def _audit(values, warnings, shadow_term, hollow_term):
    """Check the constraints between the entries; only an override can
    violate one, which is reported as a warning rather than an error."""
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


def star_pairs_iter(space, v, eps, M, radius=None, height_bound=None):
    """Pairs (x, y, m) with |d(v,x)-d(v,y)| <= eps and d(x,y) <= M,
    m = min of the two radii.  Ordered by (radius of x, x, y).  Includes
    (x, x).  A vertex is eligible when d(v, .) <= radius and its height
    is at most height_bound (None: no bound)."""
    dist_v = space.distances(v)
    heights = space.heights
    if radius is None:
        radius = space.n
    if height_bound is None:
        height_bound = space.h_max
    # distances(v) comes in (distance, id) order
    for x, d in dist_v.items():
        if d > radius:
            break
        if heights[x] > height_bound:
            continue
        near = bfs_distances(space, [x], cutoff=M)
        for y in sorted(near):
            if y < x:
                continue
            dy = dist_v.get(y)
            if dy is not None and dy <= radius \
                    and heights[y] <= height_bound and abs(d - dy) <= eps:
                yield (x, y, min(d, dy))


@dataclass(frozen=True)
class DdagAnswer:
    ok: bool
    path: object
    caveat: bool


def _ball_offset(eps, table):
    """k with floor(m - C - 45*delta + 3*eps) = m + k for integer m:
    distances are integers, so the closed avoided ball of a pair with
    min radius m is dist_v <= m + k."""
    k = 3 * eps - table["C"] - 45 * table["delta"]
    return k if isinstance(k, int) else floor_frac(k)


def check_ddag(space, v, eps, n, pair, table):
    """Is there a path of length <= n from x to y whose vertices (other
    than x and y themselves) stay outside the closed ball of radius
    m - C - 45*delta + 3*eps around v, m = min(d(v,x), d(v,y))?"""
    x, y = pair
    if x == y:
        return DdagAnswer(True, [x], False)
    dist_v = space.distances(v)
    cutoff = min(dist_v[x], dist_v[y]) + _ball_offset(eps, table)
    parent = bfs_parents(space.adjacency(), x, n, dist_v, cutoff, stop=y)
    if y in parent:
        return DdagAnswer(True, path_to(parent, y), False)
    # scan newest-first: window-boundary vertices enter the search last;
    # the avoided ball's vertices were reached but not searched, so they
    # are skipped
    dget = dist_v.get
    base = space.distances(0).get
    for u in reversed(parent):
        du = dget(u)
        if du is not None and du <= cutoff and u != x:
            continue
        bd = base(u)
        if (bd is not None and bd >= space.R_max) or \
                space.heights[u] >= space.h_max > 0:
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


def check_n_cap(table, n_cap):
    """Raise ValueError if n_cap leaves ddag_search no n to check."""
    kd = int(table["Kd"])
    if int(n_cap) < kd:
        raise ValueError("%d is below Kd, a %d-bit number: no n to check"
                         % (n_cap, kd.bit_length()))


def ddag_search(space, v, table, n_cap, eps=None):
    """The proof-driven search loop: for each n from Kd to n_cap check the
    double-dagger condition at eps = 10*delta over all star pairs in the
    ball of radius Rd(n) around v within the thick part of depth kd.

    Every pair of one x is answered from a shared avoiding-BFS map per
    avoided-ball cutoff (at most eps + 1 of them), built on first use;
    the answers are check_ddag's.  The maps of the x whose pair fails at
    n are kept across n: when the star pairs reach that x again at n + 1
    they are grown one level, not rebuilt.  Any other x starts fresh, and
    its maps are dropped when x changes.

    Returns the first n at which every in-window pair passes, provided the
    window actually covers radius Rd(n); if all in-window pairs pass but
    the window is smaller than Rd(n), stops with window-insufficient and
    the radius that would be needed.  Failures are refutations and are
    sound regardless of window size.  An n_cap below Kd leaves no n to
    check, which is a ValueError (check_n_cap) rather than an exhausted
    search.
    """
    check_n_cap(table, n_cap)
    if eps is None:
        eps = 10 * table["delta"]
    dist_v = space.distances(v)
    adj = space.adjacency()
    offset = _ball_offset(eps, table)
    avail = space.R_max - (space.distances(0).get(v) or 0)
    report = DdagReport(v=v, eps=eps, status="exhausted")
    # the maps of the x whose pair failed at the last n, by cutoff
    kept_x, kept = None, {}
    for n in range(int(table["Kd"]), int(n_cap) + 1):
        Rn = table.Rd(n)
        map_x, maps = None, {}
        for x, y, m in star_pairs_iter(space, v, eps, int(table["M"]),
                                       min(Rn, avail), int(table["kd"])):
            report.pairs_checked += 1
            if x == y:  # passes with no search, as in check_ddag
                continue
            if x != map_x:
                map_x, maps = x, kept if x == kept_x else {}
                for bfs in maps.values():  # kept maps stand at n - 1
                    bfs.grow(n)
            # every negative cutoff avoids nothing, so they share a map
            cutoff = max(m + offset, -1)
            bfs = maps.get(cutoff)
            if bfs is None:
                bfs = maps[cutoff] = ParentBFS(adj, x, dist_v, cutoff)
                bfs.grow(n)
            if y not in bfs.parent:
                if len(report.failures) < MAX_FAILURES:
                    report.failures.append((n, (x, y), m))
                kept_x, kept = x, maps
                break
        else:
            report.n = n
            if Rn > avail:
                report.status = "window-insufficient"
                report.required_radius = Rn
            else:
                report.status = "found"
            return report
    return report

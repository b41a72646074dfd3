"""Checks of the program's outputs, computed apart from the program.

Nothing here imports `jsjforge`.  Each workload has an oracle object
whose `check(record)` returns a list of error strings for one output
record (empty when the output is right), and whose `CORRUPTIONS` give,
per record kind, deliberately wrong copies of an output: the negative
controls.  `controls(oracle, round_record)` applies every corruption to
the records of one round and returns the ones the check failed to
reject.

The independent computations:
- genus 2: sphere sizes from the Floyd-Plotnick growth series
  (1+2x+2x^2+2x^3+x^4)/(1-6x-6x^2-6x^3+x^4);
- free group F2: sphere sizes 4*3^(k-1), free reduction for distances and
  translations, tree geometry for double-dagger refutations, and a
  count of geodesic paths for the non-cut search;
- line with horoball: a networkx model of the window;
- orbifolds and JSJ: replay of hom-pair witnesses under free-group and
  free-product-of-cyclics normal forms, an integer rank and minors for
  abelianizations, and graph counts for the JSJ shapes.
"""

import copy
import math
from itertools import combinations, product

import networkx as nx


# ---------------------------------------------------------------------------
# words


def free_reduce(word):
    out = []
    for x in word:
        if out and out[-1] == -x:
            out.pop()
        else:
            out.append(x)
    return out


def inverse(word):
    return [-x for x in reversed(word)]


def substitute(word, images):
    out = []
    for x in word:
        img = images[abs(x) - 1]
        out.extend(img if x > 0 else inverse(img))
    return out


def cyclic_orders(relators, n_gens):
    """Generator orders of a free product of cyclic groups, read from
    relators that are each a power of one generator (None = infinite).
    Raises ValueError for any other relator."""
    orders = [None] * n_gens
    for r in relators:
        gens = {abs(x) for x in r}
        if len(gens) != 1 or len({x > 0 for x in r}) != 1:
            raise ValueError("relator %r is not a generator power" % (r,))
        g = gens.pop()
        orders[g - 1] = math.gcd(orders[g - 1] or 0, len(r))
    return orders


def cyclic_normal_form(word, orders):
    """Normal form in the free product of cyclic groups: syllables
    (generator, exponent) with exponents reduced into 1..order-1."""
    syl = []
    for x in word:
        g, e = abs(x), (1 if x > 0 else -1)
        if syl and syl[-1][0] == g:
            syl[-1][1] += e
        else:
            syl.append([g, e])
        order = orders[g - 1]
        if order is not None:
            syl[-1][1] %= order
        if syl[-1][1] == 0:
            syl.pop()
    return [tuple(s) for s in syl]


# ---------------------------------------------------------------------------
# integer linear algebra


def _det(m):
    """Exact determinant by fraction-free (Bareiss) elimination."""
    m = [list(r) for r in m]
    n = len(m)
    sign, prev = 1, 1
    for k in range(n - 1):
        if m[k][k] == 0:
            swap = next((i for i in range(k + 1, n) if m[i][k]), None)
            if swap is None:
                return 0
            m[k], m[swap] = m[swap], m[k]
            sign = -sign
        for i in range(k + 1, n):
            for j in range(k + 1, n):
                m[i][j] = (m[i][j] * m[k][k] - m[i][k] * m[k][j]) // prev
        prev = m[k][k]
    return sign * m[n - 1][n - 1] if n else 1


def abelianization(n_gens, relators):
    """(free rank, torsion-free?) of the abelianized presentation.  The
    relation matrix has integer rank r, the largest size of a nonzero
    minor; the quotient Z^n / rows is Z^(n-r) plus torsion of order the
    gcd of the r-by-r minors, so it is free exactly when that gcd is 1."""
    rows = []
    for rel in relators:
        v = [0] * n_gens
        for x in rel:
            v[abs(x) - 1] += 1 if x > 0 else -1
        rows.append(v)
    for r in range(min(len(rows), n_gens), 0, -1):
        g = 0
        for ri in combinations(range(len(rows)), r):
            for ci in combinations(range(n_gens), r):
                g = math.gcd(g, _det([[rows[i][j] for j in ci] for i in ri]))
        if g:
            return n_gens - r, g == 1
    return n_gens, True


# ---------------------------------------------------------------------------
# record-level plumbing


def _set(rec, **kw):
    out = copy.deepcopy(rec)
    out.update(kw)
    return out


def _bump(key, by=1):
    def corrupt(rec):
        return _set(rec, **{key: rec[key] + by})
    return corrupt


def _bump_last(key):
    def corrupt(rec):
        out = copy.deepcopy(rec)
        out[key][-1] += 1
        return out
    return corrupt


def controls(oracle, round_record):
    """Negative controls: the corruptions the check did not reject, as
    'kind/label' strings, plus every corruption kind that never met a
    record to corrupt."""
    missed = []
    seen = set()
    for rec in [round_record["setup"]] + round_record["ops"]:
        if rec is None:
            continue
        for label, corrupt in oracle.CORRUPTIONS.get(rec["kind"], ()):
            seen.add(rec["kind"])
            if "error" in rec:
                continue
            if not oracle.check(corrupt(rec)):
                missed.append("%s/%s" % (rec["kind"], label))
    missed.extend("%s/(no record)" % k
                  for k in sorted(set(oracle.CORRUPTIONS) - seen))
    return missed


class _Oracle:
    CORRUPTIONS = {}

    def __init__(self, inputs):
        self.inputs = inputs

    def check(self, rec):
        if "error" in rec:
            return ["raised: " + rec["error"].strip().splitlines()[-1]]
        return getattr(self, "check_" + rec["kind"])(rec)


def _split_errors(rec, closed_surface):
    if rec["answer"] == "exhausted":
        if closed_surface and not rec["window_insufficient"]:
            return ["exhausted without window_insufficient"]
        return []
    if rec["answer"] == "splits":
        if rec["witness_verified"] is not True:
            return ["splits without a verified witness"]
        return []
    # both groups split (genus 2 over Z, F2 as a free product)
    return ["answer %r for a group that splits" % rec["answer"]]


# ---------------------------------------------------------------------------
# genus 2


def genus2_sphere_sizes(radius):
    """Coefficients of the Floyd-Plotnick growth series of the genus-2
    surface group."""
    num = [1, 2, 2, 2, 1]
    den = [1, -6, -6, -6, 1]
    out = []
    for n in range(radius + 1):
        v = num[n] if n < len(num) else 0
        v -= sum(den[k] * out[n - k] for k in range(1, min(n, 4) + 1))
        out.append(v)
    return out


class Genus2Oracle(_Oracle):
    CORRUPTIONS = {
        "window": [("wrong sphere size", _bump_last("sphere_sizes"))],
        "split": [("no-splits", lambda r: _set(r, answer="no-splits")),
                  ("unverified splits", lambda r: _set(
                      r, answer="splits", witness_verified=False))],
    }

    def check_window(self, rec):
        radius = int(self.inputs["window"].split(",")[0])
        want = genus2_sphere_sizes(radius)
        errs = []
        if rec["sphere_sizes"] != want:
            errs.append("sphere sizes %r, series gives %r"
                        % (rec["sphere_sizes"], want))
        if rec["n"] != sum(want):
            errs.append("window has %d vertices, want %d"
                        % (rec["n"], sum(want)))
        return errs

    def check_split(self, rec):
        return _split_errors(rec, closed_surface=True)


# ---------------------------------------------------------------------------
# free group F2


def f2_sphere_sizes(radius):
    return [1] + [4 * 3 ** (k - 1) for k in range(1, radius + 1)]


def _common_prefix(x, y):
    n = 0
    while n < min(len(x), len(y)) and x[n] == y[n]:
        n += 1
    return n


class FreeOracle(_Oracle):
    CORRUPTIONS = {
        "window": [("wrong sphere size", _bump_last("sphere_sizes"))],
        "split": [("no-splits", lambda r: _set(r, answer="no-splits"))],
        "certify_delta": [("delta 1", _bump("delta")),
                          ("triangle count", _bump("triangles"))],
        "ddag": [("found", lambda r: _set(r, status="found")),
                 ("no failures", lambda r: _set(r, failures=[]))],
        "cut_pair": [("broken path", lambda r: _set(
                         r, path=r["path"][:-1] + [r["path"][0]])),
                     ("wrong translation", lambda r: _set(
                         r, g=r["g"] + [r["g"][-1]]))],
        "noncut": [("found", lambda r: _set(r, verdict="found")),
                   ("candidate count", _bump("candidates", -1))],
        "distance": [("off by one", _bump("dist"))],
    }

    def check_window(self, rec):
        want = f2_sphere_sizes(self.inputs["R"])
        errs = []
        if rec["sphere_sizes"] != want:
            errs.append("sphere sizes %r, want %r"
                        % (rec["sphere_sizes"], want))
        if rec["n"] != sum(want):
            errs.append("window has %d vertices, want %d"
                        % (rec["n"], sum(want)))
        return errs

    def check_split(self, rec):
        return _split_errors(rec, closed_surface=False)

    def check_certify_delta(self, rec):
        errs = []
        if rec["delta"] != 0:
            errs.append("delta %r for a tree" % rec["delta"])
        m = sum(f2_sphere_sizes(rec["radius"]))
        if rec["triangles"] != math.comb(m, 3):
            errs.append("%d triangles, want C(%d,3)" % (rec["triangles"], m))
        return errs

    def check_ddag(self, rec):
        """In a tree every path from x to y runs through the vertex where
        their geodesics from the base part, at depth c.  When that vertex
        is neither x nor y and lies in the forbidden ball, no path avoids
        the ball, so the failure is a true refutation."""
        if rec["status"] != "exhausted":
            return ["status %r, want exhausted" % rec["status"]]
        if not rec["failures"]:
            return ["exhausted without failures"]
        C, delta, eps = rec["table"]["C"], rec["table"]["delta"], rec["eps"]
        errs = []
        for n, x, y, m in rec["failures"]:
            if x != free_reduce(x) or y != free_reduce(y) or x == y:
                errs.append("bad pair %r %r" % (x, y))
                continue
            if abs(len(x) - len(y)) > eps or m != min(len(x), len(y)):
                errs.append("not a star pair: %r %r m=%r" % (x, y, m))
                continue
            c = _common_prefix(x, y)
            radius = m - C - 45 * delta + 3 * eps
            if not (c < min(len(x), len(y)) and c <= radius):
                errs.append("pair %r %r has an avoiding path" % (x, y))
        return errs

    def check_cut_pair(self, rec):
        if rec["verdict"] != "found":
            return ["cut pair verdict %r, want found" % rec["verdict"]]
        errs = []
        if rec["verified"] is not True:
            errs.append("program verifier rejected the feature")
        path = rec["path"]
        for u, v in zip(path, path[1:]):
            if len(free_reduce(inverse(u) + v)) != 1:
                errs.append("path steps from %r to %r" % (u, v))
                break
        if len(free_reduce(inverse(path[0]) + path[-1])) != len(path) - 1:
            errs.append("path is not a geodesic")
        g = rec["g"]
        if not free_reduce(g):
            errs.append("trivial translation")
        if free_reduce(g + path[rec["a"]]) != free_reduce(path[rec["b"]]):
            errs.append("g . gamma(a) != gamma(b)")
        return errs

    def check_noncut(self, rec):
        errs = []
        if rec["verdict"] != "none-at-full-bound":
            errs.append("non-cut verdict %r, want none-at-full-bound"
                        % rec["verdict"])
        n1, n2 = rec["lengths"]
        want = 0
        for l1, l2, l3 in product(range(1, n1 + 1), range(1, n2 + 1),
                                  range(1, n1 + 1)):
            total = l1 + l2 + l3 + 2 * rec["eta"]
            if total <= self.inputs["R"]:
                want += 4 * 3 ** (total - 1)
        if rec["candidates"] != want:
            errs.append("%d candidates, want %d geodesic paths"
                        % (rec["candidates"], want))
        return errs

    def check_distance(self, rec):
        want = len(free_reduce(inverse(rec["x"]) + rec["y"]))
        if rec["dist"] != want:
            return ["d(%r, %r) = %r, want %d"
                    % (rec["x"], rec["y"], rec["dist"], want)]
        return []


# ---------------------------------------------------------------------------
# line with horoball


def line_model(R, h):
    """The cusped window over (Z, {Z}): the integer line -R..R plus a
    combinatorial horoball, joining offsets at height k when their
    distance along the line is at most 2**k."""
    g = nx.Graph()
    xs = range(-R, R + 1)
    for x in xs:
        if x + 1 <= R:
            g.add_edge(("t", x), ("t", x + 1))
        g.add_edge(("t", x), ("h", x, 1))
        for k in range(1, h + 1):
            if k + 1 <= h:
                g.add_edge(("h", x, k), ("h", x, k + 1))
            for y in range(x + 1, min(R, x + 2 ** k) + 1):
                g.add_edge(("h", x, k), ("h", y, k))
    return g


def _height(node):
    return 0 if node[0] == "t" else node[2]


class LineOracle(_Oracle):
    CORRUPTIONS = {
        "window": [("vertex count", _bump("n"))],
        "distance": [("off by one", _bump("dist"))],
        "cut_point": [("component count", _bump("components")),
                      ("none", lambda r: _set(
                          r, verdict="none-at-full-bound"))],
        "horseshoe": [("broken path", lambda r: _set(
                          r, path=r["path"][:1] + [["t", 64]]
                          + r["path"][2:])),
                      ("none", lambda r: _set(r, verdict="none-in-budget"))],
        "stability": [("flipped", lambda r: _set(r, stable=not r["stable"]))],
    }

    def __init__(self, inputs):
        super().__init__(inputs)
        self.R, self.h = inputs["R"], inputs["h"]
        self.g = line_model(self.R, self.h)
        # every round asks the same questions: answer each once
        self._memo = {}

    def _cached(self, key, compute):
        if key not in self._memo:
            self._memo[key] = compute()
        return self._memo[key]

    def _ray(self, x):
        return [("t", x)] + [("h", x, k) for k in range(1, self.h + 1)]

    def _annulus(self, gamma, r, K, R):
        """(components of N_{r,R}, the A-components meeting C_K)."""
        dist = nx.multi_source_dijkstra_path_length(self.g, set(gamma),
                                                    cutoff=max(R, K))
        N = {v for v, d in dist.items() if r <= d <= R}
        CK = {v for v, d in dist.items() if d == K}
        comps = [set(c) for c in
                 nx.connected_components(self.g.subgraph(N))]
        return comps, [c for c in comps if c & CK]

    def check_window(self, rec):
        want = self.g.number_of_nodes()
        if rec["n"] != want:
            return ["window has %d vertices, model %d" % (rec["n"], want)]
        return []

    def check_distance(self, rec):
        want = self._cached(("d", rec["x"], rec["y"]),
                            lambda: nx.shortest_path_length(
                                self.g, ("t", rec["x"]), ("t", rec["y"])))
        if rec["dist"] != want:
            return ["d(%d, %d) = %r, model %d"
                    % (rec["x"], rec["y"], rec["dist"], want)]
        return []

    def _cut_point_components(self, r, K, R, k):
        _, a_comps = self._annulus(self._ray(0), r, K, R)
        shallow = {v for c in a_comps for v in c if _height(v) <= k}
        return nx.number_connected_components(self.g.subgraph(shallow))

    def check_cut_point(self, rec):
        params = tuple(rec["params"])
        want = self._cached(("cut", params),
                            lambda: self._cut_point_components(*params))
        if want < 2:
            return ["model annulus is connected; the check cannot hold"]
        if rec["verdict"] != "found":
            return ["cut point verdict %r, want found" % rec["verdict"]]
        if rec["components"] != want:
            return ["%d components, model %d" % (rec["components"], want)]
        return []

    def check_horseshoe(self, rec):
        if rec["verdict"] != "found":
            return ["horseshoe verdict %r, want found" % rec["verdict"]]
        errs = []
        if rec["feature_kind"] != "horseshoe" or rec["verified"] is not True:
            errs.append("feature kind %r, verified %r"
                        % (rec["feature_kind"], rec["verified"]))
        path = [tuple(v) for v in rec["path"]]
        if any(not self.g.has_edge(u, v) for u, v in zip(path, path[1:])):
            errs.append("path leaves the model's edges")
        if _height(path[0]) != _height(path[-1]) or _height(path[0]) < 1:
            errs.append("endpoints not at one horoball height")
        return errs

    def _stable(self, x, r, K, R, R2):
        ray = self._ray(x)
        _, a1 = self._annulus(ray, r, K, R)
        _, a2 = self._annulus(ray, r, K, R2)
        if len(a1) != len(a2):
            return False
        image = set()
        for c in a1:
            targets = [i for i, c2 in enumerate(a2) if c & c2]
            if len(targets) != 1:
                return False
            image.add(targets[0])
        return len(image) == len(a1)

    def check_stability(self, rec):
        key = (rec["x"],) + tuple(rec["params"])
        want = self._cached(("stable",) + key, lambda: self._stable(*key))
        if rec["stable"] != want:
            return ["stability %r at x=%d, model %r"
                    % (rec["stable"], rec["x"], want)]
        return []


# ---------------------------------------------------------------------------
# orbifolds and JSJ

# the catalogue items with exactly one peripheral (3, 6 and 7) each have a
# relator that is a proper power of one generator, so every such model
# has torsion; F2 rel <a> is torsion-free and matches none of them
EXPECTED_MATCH = {"pants": (5, []), "disc-3-5": (3, [3, 5]),
                  "free-rel-a": None}


def _replay(rec):
    """Replay a hom-pair witness under the free-product-of-cyclics normal
    form (a free group being the case with no relators)."""
    model, target = rec["model"], rec["target"]
    m_orders = cyclic_orders(model["relators"], model["gens"])
    t_orders = cyclic_orders(target["relators"], target["gens"])
    phi, psi = rec["phi"], rec["psi"]

    def in_t(w):
        return cyclic_normal_form(w, t_orders)

    def in_m(w):
        return cyclic_normal_form(w, m_orders)

    errs = []
    if any(in_t(substitute(r, phi)) for r in model["relators"]):
        errs.append("phi does not kill the model relators")
    if any(in_m(substitute(r, psi)) for r in target["relators"]):
        errs.append("psi does not kill the target relators")
    for i in range(model["gens"]):
        if in_m(substitute(phi[i], psi)) != in_m([i + 1]):
            errs.append("psi . phi moves model generator %d" % (i + 1))
    for j in range(target["gens"]):
        if in_t(substitute(psi[j], phi)) != in_t([j + 1]):
            errs.append("phi . psi moves target generator %d" % (j + 1))
    if sorted(rec["pairing"]) != list(range(len(target["peripherals"]))):
        errs.append("pairing %r is not a bijection" % (rec["pairing"],))
        return errs
    for i, j in enumerate(rec["pairing"]):
        c = rec["conjugators"][i]
        (img,) = [substitute(w, phi) for w in model["peripherals"][i]]
        moved = in_t(c + img + inverse(c))
        (tw,) = target["peripherals"][j]
        if moved not in (in_t(tw), in_t(inverse(tw))):
            errs.append("peripheral %d does not land on target %d" % (i, j))
    return errs


def _graph_shape(graph):
    vids = [v["id"] for v in graph["vertices"]]
    edges = [(e["from"], e["to"]) for e in graph["edges"]]
    g = nx.MultiGraph()
    g.add_nodes_from(vids)
    g.add_edges_from(edges)
    betti = len(edges) - len(vids) + nx.number_connected_components(g)
    return vids, edges, betti


def _extra_edge(rec):
    out = copy.deepcopy(rec)
    graph = out["graph"]
    plain = [v["id"] for v in graph["vertices"] if v["marking"] != "vc"]
    u = plain[0]
    w = plain[-1]
    graph["edges"].append({"id": 1 + max([e["id"] for e in graph["edges"]],
                                         default=-1),
                           "from": u, "to": w, "presentation": {},
                           "inj_from": [], "inj_to": []})
    return out


class OrbifoldOracle(_Oracle):
    CORRUPTIONS = {
        "orbifold": [
            ("swapped item", lambda r: _set(
                r, verdict="found", item={5: 3}.get(r.get("item"), 5))),
            ("bad phi", lambda r: _set(
                r, phi=[r["phi"][0] + [1]] + r["phi"][1:])
             if "phi" in r else _set(r, verdict="found"))],
        "jsj": [("extra edge", _extra_edge)],
    }

    def check_orbifold(self, rec):
        want = EXPECTED_MATCH[rec["name"]]
        if want is None:
            if rec["verdict"] != "none-in-budget":
                return ["%s: verdict %r, want none-in-budget"
                        % (rec["name"], rec["verdict"])]
            return []
        if rec["verdict"] != "found":
            return ["%s: verdict %r, want found"
                    % (rec["name"], rec["verdict"])]
        item, params = want
        errs = []
        if rec["item"] != item or sorted(rec["params"]) != params:
            errs.append("%s: item %r%r, want %r%r"
                        % (rec["name"], rec["item"], rec["params"], item,
                           params))
        return errs + ["%s: %s" % (rec["name"], e) for e in _replay(rec)]

    def check_jsj(self, rec):
        graph = rec["graph"]
        vids, edges, betti = _graph_shape(graph)
        errs = []
        if rec["partial"]:
            errs.append("maximal splitting left a vertex undecided")
        if rec["flavor"] == "vc":
            if len(vids) != 1 or edges:
                return errs + ["vc JSJ has %d vertices, %d edges; want 1, 0"
                               % (len(vids), len(edges))]
            v = graph["vertices"][0]
            if v["marking"] != "hangingFuchsian":
                errs.append("vertex marked %r" % v["marking"])
            p = v["presentation"]
            rank, free = abelianization(len(p["generators"]),
                                        p["relators"])
            if (rank, free) != (4, True):
                errs.append("vertex group abelianizes to Z^%d%s"
                            % (rank, "" if free else " plus torsion"))
            return errs
        marking = {v["id"]: v["marking"] for v in graph["vertices"]}
        for u, w in edges:
            if (marking[u] == "vc") == (marking[w] == "vc"):
                errs.append("edge %d-%d not between a cylinder and a "
                            "non-cylinder vertex" % (u, w))
        if betti != 2:
            errs.append("first Betti number %d, want 2" % betti)
        return errs


ORACLES = {"genus2-window": Genus2Oracle, "free-window": FreeOracle,
           "line-horoball": LineOracle, "orbifold-jsj": OrbifoldOracle}

"""Subgroup algebra: virtually cyclic analysis, the maximal finite normal
subgroup, effective-kernel quotients and small-orbifold recognition.

Everything here is a bounded, certificate-producing search.  A "vc"
verdict comes with the infinite-order core element, its coset system,
and the maximal virtually cyclic overgroup found by bounded root
extraction; a "not-vc" verdict comes with a witness pair g, h whose
squares generate a free-ish pair (the commutator of the squares has
infinite order); anything else is an honest "unknown".
"""

import itertools
import math
from dataclasses import dataclass, field
from fractions import Fraction

from .geometry import Ball, CayleyBall
from .words import BackendError, FreeBackend, Presentation, \
    RewritingBackend, concat, conjugate, cyclic_reduce, free_reduce, \
    inverse_word, parse_word, substitute, torsion_rewriting_rules, \
    words_shortlex

# vertex cap of the Cayley balls of radius 4*delta + 2 that bound torsion
# orders here
MAX_BALL = 200_000
# cyclic_subgroup_contains follows powers of u whose normal forms stay
# within the length of x plus POWER_SLACK
POWER_SLACK = 8


class BudgetError(Exception):
    pass


# ---------------------------------------------------------------------------
# element helpers


def order_of(backend, w, bound):
    """Order of the element, or None for infinite order.  Exact on the
    free backend (a free group is torsion-free) and on a rewriting
    backend built from torsion_rewriting_rules (a free product of
    cyclic groups, where an element of finite order is conjugate into a
    factor: Lyndon-Schupp IV.1.6), where it may exceed the bound.  Other
    backends raise w to powers up to the bound: None there is infinite
    order only when the bound dominates the torsion orders of the
    group.  Callers read only "finite or not"."""
    if isinstance(backend, FreeBackend):
        return None if free_reduce(w) else 1
    p = backend.presentation
    if isinstance(backend, RewritingBackend) and \
            backend.rules == torsion_rewriting_rules(p):
        return _free_product_order(backend.normalize(w), {
            abs(r[0]): len(r) for r in map(cyclic_reduce, p.relators)})
    acc = ()
    for m in range(1, bound + 1):
        acc = backend.normalize(concat(acc, w))
        if not acc:
            return m
    return None


def _free_product_order(nf, orders):
    """Order of a normal form in the free product of cyclic groups: cancel
    or merge its first and last syllables until one syllable x^e is left
    (order p / gcd(p, e) for x of order p), none (order 1), or a
    cyclically reduced word of two or more syllables (infinite)."""
    syl = [(g, sum(x // g for x in run))
           for g, run in itertools.groupby(nf, key=abs)]
    i, j = 0, len(syl) - 1
    while i < j and syl[i][0] == syl[j][0]:
        g, e = syl[i][0], syl[i][1] + syl[j][1]
        if e % orders[g] if g in orders else e:
            return None
        i, j = i + 1, j - 1
    if i == j and syl[i][0] in orders:
        p = orders[syl[i][0]]
        return p // math.gcd(p, syl[i][1])
    return 1 if i > j else None


def subgroup_elements(backend, gens, max_syllables):
    """Normal forms of the products of up to max_syllables generators and
    inverses, one per element of <gens>, in BFS order."""
    ball = _subgroup_ball(backend, gens)
    for _ in range(max_syllables):
        ball.grow()
    return ball.normal_forms()


def _subgroup_ball(backend, gens):
    """The Ball of <gens> stepping by each generator, then its inverse."""
    return Ball(backend, [s for g in gens
                          for s in (tuple(g), inverse_word(g))])


def cyclic_subgroup_contains(backend, u, x):
    """Bounded test for x in <u>: compare normal forms against powers of
    u whose normal forms stay within the length of x plus POWER_SLACK."""
    nfx = backend.normalize(x)
    limit = len(nfx) + POWER_SLACK
    for sign in (1, -1):
        step = tuple(u) if sign == 1 else inverse_word(u)
        acc = ()
        while True:
            if acc == nfx:
                return True
            acc = backend.normalize(concat(acc, step))
            if not acc or len(acc) > limit:
                break
            if acc == nfx:
                return True
    return not nfx


# ---------------------------------------------------------------------------
# the maximal finite normal subgroup


def maximal_finite_normal_subgroup(p, backend, delta):
    """The maximal finite normal subgroup of the group, as far as its
    elements and their conjugates lie in the ball of radius 4*delta + 2:
    the closure of every finite-order element whose conjugacy class stays
    in the ball and is all of finite order, as a sorted list of normal
    forms; [()] when that closure leaves the ball or has an element of
    infinite order."""
    radius = 4 * delta + 2
    elems = CayleyBall(p, backend, radius, vertex_cap=MAX_BALL).normal_forms()
    elem_set = set(elems)
    order_bound = len(elems)
    gens = [(i + 1,) for i in range(len(p.generators))]

    def conj_class(x):
        cls = {x}
        queue = [x]
        while queue:
            y = queue.pop()
            for s in gens:
                for z in (backend.normalize(conjugate(s, y)),
                          backend.normalize(conjugate(inverse_word(s), y))):
                    if z not in elem_set:
                        return None  # class escapes the ball
                    if z not in cls:
                        cls.add(z)
                        queue.append(z)
        return cls

    core = set()
    for x in elems:
        if x in core:
            continue
        if order_of(backend, x, order_bound) is None:
            continue
        cls = conj_class(x)
        if cls is not None and all(
                order_of(backend, y, order_bound) is not None for y in cls):
            core |= cls

    # the subgroup the core generates
    sub = {()} | core
    changed = True
    while changed:
        changed = False
        for x, y in itertools.product(sorted(sub), repeat=2):
            z = backend.normalize(concat(x, y))
            if z not in elem_set:
                return [()]
            if z not in sub:
                sub.add(z)
                changed = True
        for x in sorted(sub):
            z = backend.normalize(inverse_word(x))
            if z not in sub:
                if z not in elem_set:
                    return [()]
                sub.add(z)
                changed = True
    if not all(order_of(backend, x, order_bound) for x in sub):
        return [()]
    return sorted(sub)


def effective_kernel_quotient(p, peripherals, backend, delta):
    """Quotient by the maximal finite normal subgroup: its elements are
    added as relators; peripheral words carry over verbatim."""
    maximal = maximal_finite_normal_subgroup(p, backend, delta)
    new_rels = p.relators + tuple(w for w in maximal
                                  if w and w not in p.relators)
    p2 = Presentation(p.generators, new_rels, tuple(peripherals))
    return p2, list(p2.peripherals)


# ---------------------------------------------------------------------------
# virtually cyclic analysis


@dataclass
class VCReport:
    verdict: str              # vc | not-vc | unknown
    E: list = field(default_factory=lambda: [()])
    vc_type: str = None       # Z | Dinf
    overgroup: list = None    # generator words in the ambient group
    core: tuple = None        # the infinite-order element u
    witness: tuple = None     # (g, h) with [g^2, h^2] of infinite order
    quasiconvexity: int = None
    budgets: dict = field(default_factory=dict)


def _commutator(x, y):
    return free_reduce(concat(concat(x, y),
                              concat(inverse_word(x), inverse_word(y))))


def vc_analyze(p, backend, delta, S, budget=6):
    """Is <S> virtually cyclic?  Runs the two legs of the decision in
    interleaved rounds: (i) find an infinite-order u with s u s^-1 in
    {u, u^-1} for all s in S and a closing coset system for <u> in <S>;
    (ii) find g, h in <S> with [g^2, h^2] of infinite order."""
    S = [tuple(backend.normalize(tuple(w))) for w in S]
    S = [w for w in S if w]
    if not S:
        return VCReport("vc", vc_type="Z", overgroup=[], core=(),
                        budgets={"rounds": 0})
    # the ball's size bounds torsion orders; the free backend needs none
    order_bound = None if isinstance(backend, FreeBackend) else CayleyBall(
        p, backend, 4 * delta + 2, vertex_cap=MAX_BALL).n
    # round r reads the elements of up to r syllables: one sphere more
    ball = _subgroup_ball(backend, S)
    candidates = []
    for rounds in range(1, budget + 1):
        ball.grow()
        candidates.extend(ball.normal_forms(len(candidates) + 1))
        # leg (ii): obstruction pair
        for g, h in itertools.combinations(candidates, 2):
            c = backend.normalize(_commutator(concat(g, g), concat(h, h)))
            if c and order_of(backend, c, order_bound) is None:
                return VCReport("not-vc", witness=(g, h),
                                budgets={"rounds": rounds})
        # leg (i): normalized infinite-order core
        for u in candidates:
            if order_of(backend, u, order_bound) is not None:
                continue
            rep = _core_normalizes(backend, u, S)
            if rep is None:
                continue
            cosets = _coset_system(backend, u, S, cap=16 * budget)
            if cosets is None:
                continue
            vc_type = "Dinf" if rep == "flip" else "Z"
            E = _finite_normal_in(backend, S, candidates, order_bound)
            over = _max_overgroup(p, backend, u, E, order_bound, budget)
            qc = max((len(c) for c in cosets), default=0)
            return VCReport("vc", E=E, vc_type=vc_type, overgroup=over,
                            core=u, quasiconvexity=qc,
                            budgets={"rounds": rounds,
                                     "cosets": len(cosets)})
    return VCReport("unknown", budgets={"rounds": budget})


def _core_normalizes(backend, u, S):
    """Each generator must conjugate u to u or u^-1."""
    uinv = backend.normalize(inverse_word(u))
    flip = False
    for s in S:
        c = backend.normalize(conjugate(s, u))
        if c == u:
            continue
        if c == uinv:
            flip = True
            continue
        return None
    return "flip" if flip else "straight"


def _coset_system(backend, u, S, cap):
    """BFS over right cosets of <u> in <S>; None if it fails to close
    within the cap."""
    reps = [()]
    frontier = [()]
    steps = [tuple(s) for s in S] + [inverse_word(s) for s in S]
    while frontier:
        new = []
        for x in frontier:
            for s in steps:
                y = backend.normalize(concat(x, s))
                if any(cyclic_subgroup_contains(
                        backend, u, concat(y, inverse_word(r)))
                        for r in reps):
                    continue
                reps.append(y)
                new.append(y)
                if len(reps) > cap:
                    return None
        frontier = new
    return reps


def _finite_normal_in(backend, S, candidates, order_bound):
    """Finite elements of <S> whose S-conjugates stay in the finite-order
    candidate pool; closed under the subgroup operations (bounded)."""
    finite = {w for w in candidates
              if order_of(backend, w, order_bound) is not None}
    keep = set()
    for e in finite:
        if all(backend.normalize(conjugate(s, e)) in finite for s in S) and \
           all(backend.normalize(conjugate(inverse_word(s), e)) in finite
               for s in S):
            keep.add(e)
    # discard anything whose pairwise products escape
    stable = {e for e in keep
              if all(backend.normalize(concat(e, f)) in keep | {()}
                     for f in keep)}
    return sorted(stable | {()}, key=len)


def _shortlex_root(p, backend, u, order_bound):
    """The shortest word of up to |u| - 1 letters with a power m >= 2
    equal to u, else u."""
    root = tuple(u)
    for w in words_shortlex(len(p.generators), max(1, len(u) - 1)):
        nf = backend.normalize(w)
        if not nf or len(nf) >= len(root):
            continue
        acc = nf
        for m in range(2, order_bound + len(u) + 2):
            acc = backend.normalize(concat(acc, nf))
            if acc == u:
                if len(nf) < len(root):
                    root = nf
                break
            if len(acc) > len(u) + 4:
                break
    return root


def _max_overgroup(p, backend, u, E, order_bound, budget):
    """Root extraction: shortest w with w^m = u (m >= 2), plus an
    inverting generator when one exists, plus the finite part.  On the
    free backend the root is exact: u = t c t^-1 with c cyclically
    reduced, and the root is t r t^-1 with r the primitive period of c
    (Lyndon-Schupp, Ch. I).  Other backends list every word of up to
    |u| - 1 letters."""
    if isinstance(backend, FreeBackend):
        c = cyclic_reduce(u)
        h = (len(u) - len(c)) // 2
        d = next(d for d in range(1, len(c) + 1)
                 if c[:d] * (len(c) // d) == c)
        root = u[:h] + c[:d] + u[len(u) - h:]
    else:
        root = _shortlex_root(p, backend, u, order_bound)
    gens = [root]
    uinv = backend.normalize(inverse_word(u))
    for w in words_shortlex(len(p.generators), budget):
        nf = backend.normalize(w)
        if nf and backend.normalize(conjugate(nf, u)) == uinv:
            gens.append(nf)
            break
    gens.extend(e for e in E if e)
    return gens


# ---------------------------------------------------------------------------
# small orbifold catalogue


@dataclass(frozen=True)
class OrbifoldModel:
    item: int
    params: tuple
    presentation: Presentation


def _pres(gens, rel_strings, per_lists):
    p0 = Presentation(tuple(gens), (), ())
    rels = tuple(parse_word(r, p0.generators) for r in rel_strings)
    pers = tuple(("p%d" % i,
                  tuple(parse_word(w, p0.generators) for w in ws))
                 for i, ws in enumerate(per_lists))
    return Presentation(tuple(gens), rels, pers)


def _rep(word_str, n):
    return word_str * n


def orbifold_model(item, params=()):
    """The ten-item catalogue of small hyperbolic 2-orbifolds, None for
    parameters that leave the orbifold not hyperbolic.  Items 1 and 7
    use the corrected readings of the source text: item 1's third
    relator is (ab)^r, and item 7 requires 1/p + 1/q < 1."""
    if item == 1:
        p, q, r = params
        if Fraction(1, p) + Fraction(1, q) + Fraction(1, r) >= 1:
            return None
        pres = _pres("ab", ["a" * p, "b" * q, _rep("ab", r)], [])
        return OrbifoldModel(1, params, pres)
    if item == 2:
        p, q, r = params
        if Fraction(1, p) + Fraction(1, q) + Fraction(1, r) >= 1:
            return None
        pres = _pres("abc", ["aa", "bb", "cc", _rep("ab", p),
                             _rep("bc", q), _rep("ca", r)], [])
        return OrbifoldModel(2, params, pres)
    if item == 3:
        p, q = params
        if p <= 1 or q <= 1:
            return None
        pres = _pres("ab", ["a" * p, "b" * q], [["ab"]])
        return OrbifoldModel(3, params, pres)
    if item == 4:
        (p,) = params
        if p <= 1:
            return None
        pres = _pres("ab", [_rep("ab", p)], [["a"], ["b"]])
        return OrbifoldModel(4, params, pres)
    if item == 5:
        # peripheral <c> with c = (ab)^-1, the pair-of-pants convention
        pres = _pres("ab", [], [["a"], ["b"], ["BA"]])
        return OrbifoldModel(5, (), pres)
    if item == 6:
        (p,) = params
        if p <= 1:
            return None
        pres = _pres("at", ["aa", "t" * p], [["a", "taT"]])
        return OrbifoldModel(6, params, pres)
    if item == 7:
        p, q = params
        if Fraction(1, p) + Fraction(1, q) >= 1:
            return None
        pres = _pres("abc", ["aa", "bb", "cc", _rep("ab", p), _rep("bc", q)],
                     [["a", "c"]])
        return OrbifoldModel(7, params, pres)
    if item == 8:
        pres = _pres("at", ["aa"], [["a", "taT"]])
        return OrbifoldModel(8, (), pres)
    if item == 9:
        (p,) = params
        if p <= 1:
            return None
        pres = _pres("abc", ["aa", "bb", "cc", _rep("ab", p)],
                     [["b", "c"], ["c", "a"]])
        return OrbifoldModel(9, params, pres)
    if item == 10:
        pres = _pres("abc", ["aa", "bb", "cc"],
                     [["a", "b"], ["b", "c"], ["c", "a"]])
        return OrbifoldModel(10, (), pres)
    raise ValueError("catalogue items are 1..10")


_PARAM_COUNTS = {1: 3, 2: 3, 3: 2, 4: 1, 5: 0, 6: 1, 7: 2, 8: 0, 9: 1, 10: 0}


def catalogue_models(max_param):
    """All models with parameters up to max_param, ordered by (parameter
    total, item, params) so enumeration grows evenly."""
    out = []
    for item, count in _PARAM_COUNTS.items():
        for params in itertools.product(range(2, max_param + 1),
                                        repeat=count):
            m = orbifold_model(item, params)
            if m is not None:
                out.append(m)
    out.sort(key=lambda m: (sum(m.params), m.item, m.params))
    return out


# ---------------------------------------------------------------------------
# homomorphism pairs


@dataclass
class HomPairWitness:
    model: OrbifoldModel
    phi: tuple                # model generator images, words in Gamma
    psi: tuple                # Gamma generator images, words in the model
    conjugators: tuple        # per matched peripheral pair, words in Gamma
    pairing: tuple            # peripheral index matching


def _is_hom(backend, relators, images):
    return all(not backend.normalize(substitute(r, images))
               for r in relators)


def _peripherals_match(backend, model_per_images, target_pers, budget):
    """Find a bijection and bounded conjugators identifying the image
    peripheral subgroups with the target ones."""
    if len(model_per_images) != len(target_pers):
        return None
    n_target = len(target_pers)
    conj_words = list(words_shortlex(
        len(backend.presentation.generators), budget))
    for pairing in itertools.permutations(range(n_target)):
        conjs = []
        ok = True
        for i, j in enumerate(pairing):
            imgs = model_per_images[i]
            tgt = [tuple(w) for _, ws in [target_pers[j]] for w in ws]
            sub_t = set(subgroup_elements(backend, tgt, budget + 2))
            tgt_nf = [backend.normalize(w) for w in tgt]
            got = None
            for c in conj_words:
                moved = [backend.normalize(conjugate(c, w)) for w in imgs]
                sub_m = set(subgroup_elements(backend, moved, budget + 2))
                if all(m in sub_t for m in moved) and \
                        all(t in sub_m for t in tgt_nf):
                    got = c
                    break
            if got is None:
                ok = False
                break
            conjs.append(got)
        if ok:
            return pairing, tuple(conjs)
    return None


def verify_hom_pair(model, model_backend, p, backend, phi, psi,
                    target_pers, budget=2):
    """Full replay of a witness: homomorphism conditions, two-sided
    composition identity, peripheral alignment."""
    if not _is_hom(backend, model.presentation.relators, phi):
        return None
    if not _is_hom(model_backend, p.relators, psi):
        return None
    for i in range(len(model.presentation.generators)):
        back = model_backend.normalize(substitute(phi[i], psi))
        if back != model_backend.normalize((i + 1,)):
            return None
    for i in range(len(p.generators)):
        back = backend.normalize(substitute(psi[i], phi))
        if back != backend.normalize((i + 1,)):
            return None
    per_images = [[backend.normalize(substitute(tuple(w), phi)) for w in ws]
                  for _, ws in model.presentation.peripherals]
    match = _peripherals_match(backend, per_images, list(target_pers), budget)
    if match is None:
        return None
    pairing, conjs = match
    return HomPairWitness(model, tuple(phi), tuple(psi), conjs, pairing)


def small_orbifold_match(p, peripherals, backend, budget=3, delta=0):
    """Interleaved enumeration of catalogue models and generator-image
    maps in both directions; the first verified inverse pair wins.  The
    underlying procedure is a semi-decision, so exhaustion is reported
    as none-in-budget.

    Round L tries every catalogue model with parameters up to 2L+1
    against the maps whose images are words of length at most L (see
    `_match_model`).  Each model's backend is built once per search and
    each word pool once per (L, generator count)."""
    from .features import SearchOutcome
    from .words import default_backend
    p_eff, pers_eff = effective_kernel_quotient(p, peripherals, backend,
                                                delta)
    stats = {"maps_checked": 0}
    backends = {}
    for L in range(1, budget + 1):
        pools = {}
        # catalogue parameters grow faster than map lengths: torsion
        # parameters are cheap to enumerate, long images are not
        for model in catalogue_models(2 * L + 1):
            if len(model.presentation.peripherals) != len(pers_eff):
                continue
            key = (model.item, model.params)
            if key not in backends:
                try:
                    backends[key] = default_backend(model.presentation)
                except BackendError:
                    backends[key] = None
            if backends[key] is None:
                continue
            for n in (len(model.presentation.generators),
                      len(p_eff.generators)):
                if n not in pools:
                    pools[n] = list(words_shortlex(n, L, include_empty=True))
            witness = _match_model(model, backends[key], p_eff, backend,
                                   pers_eff, pools, L, stats)
            if witness is not None:
                return SearchOutcome("found", witness, stats)
    return SearchOutcome("none-in-budget", stats=stats)


def _hom_images(backend, relators, pool, n):
    """The n-tuples over pool that send every relator to the identity,
    in itertools.product order.  The tuples grow one generator image at
    a time, and each relator is checked once, as soon as the image of
    its highest-numbered generator is chosen."""
    due = [[] for _ in range(n)]
    for r in relators:
        if r:
            due[max(abs(x) for x in r) - 1].append(r)
    maps = [()]
    for rels in due:
        grown = []
        for prefix in maps:
            for w in pool:
                images = prefix + (w,)
                if not rels or _is_hom(backend, rels, images):
                    grown.append(images)
        maps = grown
    return maps


def _match_model(model, mbe, p, backend, pers, pools, L, stats):
    """First verified inverse pair (phi, psi) between the model and
    Gamma with images from pools[generator count], in the order of
    the nested loop over the homomorphisms phi, then psi.

    For each phi one pass over the model pool finds, per Gamma generator
    i, the words v with phi(v) = i in Gamma: the preimage table.  A psi
    passes the second composition check of `verify_hom_pair` exactly when
    each psi[i] lies in its table entry, so only those psis are judged,
    each by `verify_hom_pair` in full; an empty entry rules out every
    psi.  stats["maps_checked"] counts the (phi, psi) pairs decided, up
    to and including the winner."""
    n_m = len(model.presentation.generators)
    n_g = len(p.generators)
    pool_m = pools[n_m]
    phis = _hom_images(backend, model.presentation.relators, pools[n_g], n_m)
    psis = _hom_images(mbe, p.relators, pool_m, n_g)
    targets = {}
    for i in range(n_g):
        targets.setdefault(backend.normalize((i + 1,)), []).append(i)
    for phi in phis:
        pre = [set() for _ in range(n_g)]
        for v in pool_m:
            for i in targets.get(backend.normalize(substitute(v, phi)), ()):
                pre[i].add(v)
        if all(pre):
            for k, psi in enumerate(psis):
                if not all(psi[i] in pre[i] for i in range(n_g)):
                    continue
                w = verify_hom_pair(model, mbe, p, backend, phi, psi, pers,
                                    budget=min(L, 2))
                if w is not None:
                    stats["maps_checked"] += k + 1
                    return w
        stats["maps_checked"] += len(psis)
    return None


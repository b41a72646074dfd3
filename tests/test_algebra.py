import itertools
import random

import pytest

from jsjforge import algebra as A
from jsjforge.words import (Presentation, RewritingBackend, concat,
                            conjugate, cyclic_reduce, default_backend,
                            inverse_word, parse_presentation, words_shortlex)


def _z2xz():
    p = Presentation(("a", "b"), ((1, 1), (1, 2, -1, -2)), ())
    rules = [((-1,), (1,)), ((1, 1), ()), ((2, 1), (1, 2)),
             ((-2, 1), (1, -2))]
    be = RewritingBackend(p, rules)
    return p, be


def test_order_of():
    p = parse_presentation("gen a\nrel aaaaa\n")
    be = default_backend(p)
    assert A.order_of(be, (1,), 10) == 5
    assert A.order_of(be, (), 10) == 1
    pf = parse_presentation("gen a b\n")
    bef = default_backend(pf)
    assert A.order_of(bef, (1, 2), 20) is None


def _order_loop(backend, w, bound):
    """The power loop order_of runs on other backends: the first m <= bound
    with w^m trivial, else None."""
    acc = ()
    for m in range(1, bound + 1):
        acc = backend.normalize(concat(acc, w))
        if not acc:
            return m
    return None


def _seeded_words(rng, n_gens, count=60, max_len=9):
    """Random words, the empty word, and conjugates x u x^-1 whose ends
    cancel, over n_gens generators."""
    letters = [x for i in range(1, n_gens + 1) for x in (i, -i)]
    out = [()]
    for _ in range(count):
        u = tuple(rng.choice(letters) for _ in range(rng.randint(0, max_len)))
        x = tuple(rng.choice(letters) for _ in range(rng.randint(1, 3)))
        out += [u, x + u + inverse_word(x), x + inverse_word(x)]
    return out


@pytest.mark.parametrize("n_gens", [1, 2, 3])
def test_order_of_free_matches_power_loop(n_gens):
    # a free group is torsion-free: 1 for a trivial word, None otherwise,
    # which is the loop's answer at every bound >= 1
    be = default_backend(Presentation(tuple("abc"[:n_gens]), (), ()))
    for w in _seeded_words(random.Random(n_gens), n_gens):
        for bound in (1, 5, 17, 37):
            assert A.order_of(be, w, bound) == _order_loop(be, w, bound), w


FREE_PRODUCTS = ["gen a\nrel " + "a" * 20 + "\n",
                 "gen a b\nrel aaa\nrel bbbbb\n",
                 "gen a b c\nrel aa\nrel bbb\n"]


def _free_product_disagreements(text, seed):
    """Seeded words on which order_of at bound 5 differs from the loop
    run to twice the largest relator power."""
    p = parse_presentation(text)
    be = default_backend(p)
    assert isinstance(be, RewritingBackend)
    bound = 2 * max(len(r) for r in p.relators)
    return [w for w in _seeded_words(random.Random(seed), len(p.generators))
            if A.order_of(be, w, 5) != _order_loop(be, w, bound)]


@pytest.mark.parametrize("text", FREE_PRODUCTS)
def test_order_of_free_product_matches_power_loop(text):
    assert _free_product_disagreements(text, 7) == []


def test_order_of_free_product_examples():
    be20 = default_backend(parse_presentation(FREE_PRODUCTS[0]))
    # exact beyond the bound: the loop at bound 5 would say None
    assert A.order_of(be20, (1,), 5) == 20
    assert A.order_of(be20, (1,) * 8, 5) == 5
    be35 = default_backend(parse_presentation(FREE_PRODUCTS[1]))
    assert A.order_of(be35, (2, 1, -2), 1) == 3
    assert A.order_of(be35, (2, 2, -1, -2, -2), 1) == 3
    assert A.order_of(be35, (1, 2), 40) is None
    assert A.order_of(be35, (2, 1, 2, -1, -2, -2), 40) is None
    be23 = default_backend(parse_presentation(FREE_PRODUCTS[2]))
    # c has no relator: infinite, alone and conjugated
    assert A.order_of(be23, (1, 3, -1), 40) is None
    assert A.order_of(be23, (3, 2, -3), 1) == 3


_EXACT = A._free_product_order


@pytest.mark.parametrize("variant,text,word", [
    # every element infinite: misses a's order 5
    (lambda nf, orders: None, "gen a\nrel aaaaa\n", (1,)),
    # no cyclic reduction: b a B read as two syllables, infinite
    (lambda nf, orders: None if len({abs(x) for x in nf}) > 1
     else _EXACT(nf, orders), "gen a b\nrel aaa\nrel bbbbb\n", (2, 1, -2)),
], ids=["all-infinite", "no-cyclic-reduction"])
def test_order_of_free_product_negative_controls(monkeypatch, variant, text,
                                                 word):
    be = default_backend(parse_presentation(text))
    assert A.order_of(be, word, 1) == _order_loop(be, word, 10)
    assert A.order_of(be, word, 1) is not None
    monkeypatch.setattr(A, "_free_product_order", variant)
    assert A.order_of(be, word, 1) is None
    assert _free_product_disagreements(text, 7)


def test_order_of_other_rewriting_rules_keep_the_loop():
    # Z/2 x Z from hand-made rules: a has order 2, the loop at bound 1
    # does not reach it
    p, be = _z2xz()
    assert A.order_of(be, (1,), 1) is None
    assert A.order_of(be, (1,), 2) == 2


def test_subgroup_elements_deterministic(free2):
    p, be = free2
    els = A.subgroup_elements(be, [(1, 1)], 3)
    assert () in set(els)
    assert (1, 1) in set(els)
    assert (1,) not in set(els)
    assert list(els) == list(A.subgroup_elements(be, [(1, 1)], 3))


def _subgroup_elements_reference(backend, gens, max_syllables):
    """The BFS over normal forms that subgroup_elements replaced: each
    generator then its inverse, deduplicated by normal form."""
    alphabet = []
    for g in gens:
        alphabet.append(tuple(g))
        alphabet.append(inverse_word(g))
    seen = {()}
    frontier = [()]
    order = [()]
    for _ in range(max_syllables):
        new_frontier = []
        for nf in frontier:
            for a in alphabet:
                nf2 = backend.normalize(concat(nf, a))
                if nf2 not in seen:
                    seen.add(nf2)
                    new_frontier.append(nf2)
                    order.append(nf2)
        frontier = new_frontier
    return order


@pytest.mark.parametrize("text,gens", [
    ("gen a b\n", [(1,)]),
    ("gen a b\n", [(1,), (2,)]),
    ("gen a b\n", [(1, 1), (1, 2, -1)]),
    ("gen a b c\n", [(1, 2), (2, 3), (3, -1)]),
    # torsion-rewriting backends
    ("gen a b\nrel aaa\nrel bb\n", [(1,)]),
    ("gen a b\nrel aaa\nrel bb\n", [(1,), (2,)]),
    ("gen a b\nrel aa\nrel bbb\n", [(1, 2), (2, 1, 2)]),
])
def test_subgroup_elements_match_reference(text, gens):
    p = parse_presentation(text)
    be = default_backend(p)
    assert be.canonical
    for n in range(5):
        got = A.subgroup_elements(be, gens, n)
        assert got == _subgroup_elements_reference(be, gens, n), n


def test_subgroup_elements_finite_subgroup_runs_out():
    # <a> in Z3 * Z2 has three elements, all within one syllable
    p = parse_presentation("gen a b\nrel aaa\nrel bb\n")
    be = default_backend(p)
    assert [len(A.subgroup_elements(be, [(1,)], n)) for n in range(5)] == \
        [1, 3, 3, 3, 3]


def test_subgroup_elements_distinct_on_dehn_backend():
    # genus 2: elements are told apart by the bucketed equal check
    p = parse_presentation("gen a b c d\nrel abABcdCD\n")
    be = default_backend(p)
    assert not be.canonical
    els = A.subgroup_elements(be, [(1, 2), (3,)], 3)
    assert len(els) == 53
    for x, y in itertools.combinations(els, 2):
        assert not be.equal(x, y), (x, y)


def test_cyclic_subgroup_contains(free2):
    p, be = free2
    assert A.cyclic_subgroup_contains(be, (1,), (1, 1, 1))
    assert A.cyclic_subgroup_contains(be, (1, 2), (1, 2, 1, 2))
    assert not A.cyclic_subgroup_contains(be, (1,), (2,))


def test_finite_normal_subgroups_z2xz():
    p, be = _z2xz()
    # Z/2 x Z: the Z/2 factor, as a sorted list of normal forms
    assert A.maximal_finite_normal_subgroup(p, be, 0) == [(), (1,)]
    # a torsion-free group has none but the trivial one
    f2 = parse_presentation("gen a b\n")
    assert A.maximal_finite_normal_subgroup(f2, default_backend(f2), 0) == [
        ()]


def test_effective_kernel_quotient_idempotent():
    p, be = _z2xz()
    q, pers = A.effective_kernel_quotient(p, [], be, 0)
    assert (1,) in q.relators or be.normalize((1,)) in q.relators
    be_q = RewritingBackend(q, [((-1,), (1,)), ((1, 1), ()),
                                ((2, 1), (1, 2)), ((-2, 1), (1, -2)),
                                ((1,), ())])
    q2, _ = A.effective_kernel_quotient(q, [], be, 0)
    assert set(q2.relators) == set(q.relators)


def test_vc_analyze_exact_verdicts(free2):
    # free group of rank two: not virtually cyclic, witnessed
    p, be = free2
    rep = A.vc_analyze(p, be, 0, [(1,), (2,)])
    assert rep.verdict == "not-vc"
    assert rep.witness is not None

    # infinite cyclic
    pz = parse_presentation("gen a\n")
    bez = default_backend(pz)
    repz = A.vc_analyze(pz, bez, 0, [(1,)])
    assert repz.verdict == "vc" and repz.vc_type == "Z"

    # infinite dihedral
    pd = parse_presentation("gen a b\nrel aa\nrel bb\n")
    bed = default_backend(pd)
    repd = A.vc_analyze(pd, bed, 0, [(1,), (2,)], budget=8)
    assert repd.verdict == "vc" and repd.vc_type == "Dinf"

    # Z x Z/2: type Z with nontrivial finite normal part
    pm, bem = _z2xz()
    repm = A.vc_analyze(pm, bem, 0, [(1,), (2,)], budget=8)
    assert repm.verdict == "vc" and repm.vc_type == "Z"
    assert repm.E and set(repm.E) != {()}


def test_vc_analyze_conjugation_invariance(free2):
    p, be = free2
    S = [(1, 2)]
    S_conj = [conjugate((2,), w) for w in S]
    r1 = A.vc_analyze(p, be, 0, S)
    r2 = A.vc_analyze(p, be, 0, S_conj)
    assert r1.verdict == r2.verdict == "vc"
    assert r1.vc_type == r2.vc_type


def _shortlex_root_reference(n, u):
    """The root loop of the other backends, over free reduction: the
    shortest word of up to |u| - 1 letters with a power m >= 2 equal to
    u, else u."""
    root = u
    for w in words_shortlex(n, max(1, len(u) - 1)):
        if not w or len(w) >= len(root):
            continue
        acc = w
        for _ in range(2, len(u) + 2):
            acc = concat(acc, w)
            if acc == u:
                root = w
                break
            if len(acc) > len(u) + 4:
                break
    return root


def _seeded_free_words(rng, n, max_len, count):
    """Distinct reduced words t r^m t^-1 of 1..max_len letters, with
    random t, r and m: proper powers, conjugated or not, among them."""
    out = set()
    while len(out) < count:
        t, r = (tuple(rng.choice([-1, 1]) * rng.randint(1, n)
                      for _ in range(rng.randint(lo, hi)))
                for lo, hi in ((0, 2), (1, 3)))
        u = conjugate(t, r * rng.randint(1, 4))
        if 1 <= len(u) <= max_len:
            out.add(u)
    return sorted(out)


def _period_of_u_root(u):
    """Negative control: the primitive period of u itself, with the
    conjugating prefix t left in."""
    d = next(d for d in range(1, len(u) + 1)
             if u[:d] * (len(u) // d) == u)
    return u[:d]


def _free_root_mismatches(root_of):
    rng = random.Random(7)
    wrong = []
    for n, max_len, count in ((2, 8, 80), (3, 6, 50)):
        p = Presentation(tuple("abc"[:n]), (), ())
        be = default_backend(p)
        for u in _seeded_free_words(rng, n, max_len, count):
            if root_of(p, be, u) != _shortlex_root_reference(n, u):
                wrong.append((n, u))
    return wrong


def test_free_root_matches_shortlex_loop():
    """The free backend's exact root, t r t^-1 for u = t r^m t^-1, is the
    root the shortlex loop finds, on seeded F2 and F3 words."""
    assert not _free_root_mismatches(
        lambda p, be, u: A._max_overgroup(p, be, u, [], 0, 0)[0])


def test_free_root_reference_catches_a_period_without_prefix():
    # negative control: the period of u, not of its cyclic reduction,
    # is wrong on conjugated proper powers such as b a^2 b^-1, and only
    # on words that are not cyclically reduced
    wrong = _free_root_mismatches(lambda p, be, u: _period_of_u_root(u))
    assert wrong and all(cyclic_reduce(u) != u for _, u in wrong)


def test_orbifold_model_catalogue_items():
    m1 = A.orbifold_model(1, (2, 3, 7))
    assert len(m1.presentation.relators) == 3
    m3 = A.orbifold_model(3, (3, 5))
    assert m3.presentation.relators == ((1,) * 3, (2,) * 5)
    assert len(m3.presentation.peripherals) == 1
    m5 = A.orbifold_model(5)
    assert m5.presentation.relators == ()
    assert len(m5.presentation.peripherals) == 3
    m10 = A.orbifold_model(10)
    assert len(m10.presentation.peripherals) == 3


def test_orbifold_model_strict_constraints():
    # (2,3,5) is spherical: excluded by the hyperbolic-area bound
    assert A.orbifold_model(1, (2, 3, 5)) is None
    m1 = A.orbifold_model(1, (2, 3, 7))
    assert m1 is not None
    # the corrected readings: item 1's third relator is (ab)^r, and item
    # 7 needs 1/p + 1/q < 1
    assert m1.presentation.relators[2] == (1, 2) * 7
    assert A.orbifold_model(7, (2, 2)) is None


def test_catalogue_models_sorted_and_bounded():
    models = A.catalogue_models(3)
    assert models
    keys = [(sum(m.params), m.item, m.params) for m in models]
    assert keys == sorted(keys)
    assert all(all(x <= 3 for x in m.params) for m in models)


def test_small_orbifold_match_pants():
    p = parse_presentation("gen a b\nper P = a\nper Q = b\nper R = ab\n")
    be = default_backend(p)
    out = A.small_orbifold_match(p, list(p.peripherals), be, budget=2)
    assert out.verdict == "found"
    assert out.feature.model.item == 5
    replay = A.verify_hom_pair(out.feature.model,
                               default_backend(out.feature.model.presentation),
                               p, be, out.feature.phi, out.feature.psi,
                               list(p.peripherals))
    assert replay is not None


def test_small_orbifold_match_disc_3_5():
    p = parse_presentation("gen a b\nrel aaa\nrel bbbbb\nper P = ab\n")
    be = default_backend(p)
    out = A.small_orbifold_match(p, list(p.peripherals), be, budget=2)
    assert out.verdict == "found"
    assert out.feature.model.item == 3
    assert tuple(sorted(out.feature.model.params)) == (3, 5)


def test_small_orbifold_match_negative():
    p = parse_presentation("gen a b\nper P = a\n")
    be = default_backend(p)
    out = A.small_orbifold_match(p, list(p.peripherals), be, budget=2)
    assert out.verdict == "none-in-budget"


def test_small_orbifold_match_propagates_backend_faults(monkeypatch):
    # a BackendError means "this model has no backend": the model is
    # skipped; any other error while building a backend propagates
    import jsjforge.words
    from jsjforge.words import BackendError
    p = parse_presentation("gen a b\nper P = a\nper Q = b\nper R = ab\n")
    be = default_backend(p)

    def no_backend(presentation):
        raise BackendError("no backend")

    def broken(presentation):
        raise RuntimeError("broken backend")

    monkeypatch.setattr(jsjforge.words, "default_backend", no_backend)
    out = A.small_orbifold_match(p, list(p.peripherals), be, budget=1)
    assert out.verdict == "none-in-budget"
    monkeypatch.setattr(jsjforge.words, "default_backend", broken)
    with pytest.raises(RuntimeError, match="broken backend"):
        A.small_orbifold_match(p, list(p.peripherals), be, budget=1)


def _pair_loop_match(p, peripherals, backend, budget):
    """Reference for small_orbifold_match: every homomorphism phi against
    every homomorphism psi, each pair through verify_hom_pair.  Returns
    (witness, maps_checked, index of the winning phi in its list)."""
    p_eff, pers = A.effective_kernel_quotient(p, peripherals, backend, 0)
    checked = 0
    for L in range(1, budget + 1):
        for model in A.catalogue_models(2 * L + 1):
            mp = model.presentation
            if len(mp.peripherals) != len(pers):
                continue
            try:
                mbe = default_backend(mp)
            except Exception:
                continue
            pool_g = list(words_shortlex(len(p_eff.generators), L))
            pool_m = list(words_shortlex(len(mp.generators), L))
            phis = [phi for phi in itertools.product(
                        pool_g, repeat=len(mp.generators))
                    if A._is_hom(backend, mp.relators, phi)]
            psis = [psi for psi in itertools.product(
                        pool_m, repeat=len(p_eff.generators))
                    if A._is_hom(mbe, p_eff.relators, psi)]
            for k, phi in enumerate(phis):
                for psi in psis:
                    checked += 1
                    w = A.verify_hom_pair(model, mbe, p_eff, backend, phi,
                                          psi, pers, budget=min(L, 2))
                    if w is not None:
                        return w, checked, k
    return None, checked, None


@pytest.mark.parametrize("text,budget,checked", [
    ("gen a b\nper P = a\nper Q = b\nper R = ab\n", 2, 209),
    ("gen a b\nrel aaa\nrel bbbbb\nper P = ab\n", 2, 1371),
    ("gen a b\nrel aa\nrel bbb\nper P = ab\n", 2, 257),
    ("gen a b\nper P = a\n", 2, 10968),
    ("gen a b\nper P = a\n", 3, 277823),
    ("gen a b\nper P = a\nper Q = b\n", 2, 0),
    # the generators swapped: the winner maps a to b and b to a
    ("gen a b\nrel aaaaa\nrel bbb\nper P = ab\n", 2, 1371),
])
def test_orbifold_match_matches_pair_loop_reference(text, budget, checked):
    p = parse_presentation(text)
    be = default_backend(p)
    out = A.small_orbifold_match(p, list(p.peripherals), be, budget=budget)
    ref, ref_checked, k = _pair_loop_match(p, list(p.peripherals), be,
                                           budget)
    assert out.stats["maps_checked"] == ref_checked == checked
    if ref is None:
        assert out.verdict == "none-in-budget" and out.feature is None
        return
    assert out.verdict == "found" and k > 0
    got = out.feature
    assert (got.model.item, got.model.params, got.phi, got.psi,
            got.conjugators, got.pairing) == \
        (ref.model.item, ref.model.params, ref.phi, ref.psi,
         ref.conjugators, ref.pairing)
    # negative controls: the replay rejects one changed image either way
    mbe = default_backend(got.model.presentation)
    pers = list(p.peripherals)
    assert A.verify_hom_pair(got.model, mbe, p, be, got.phi, got.psi,
                             pers) is not None
    bad_phi = ((),) + got.phi[1:]
    assert A.verify_hom_pair(got.model, mbe, p, be, bad_phi, got.psi,
                             pers) is None
    bad_psi = ((),) + got.psi[1:]
    assert A.verify_hom_pair(got.model, mbe, p, be, got.phi, bad_psi,
                             pers) is None

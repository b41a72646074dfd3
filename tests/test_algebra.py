import itertools

import pytest

from jsjforge import algebra as A
from jsjforge.words import (Presentation, RewritingBackend, concat,
                            conjugate, default_backend, inverse_word,
                            parse_presentation, words_shortlex)


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
    subs, maximal = A.finite_normal_subgroups(p, be, 0)
    assert set(maximal) == {(), be.normalize((1,))}
    assert any(len(s) == 1 for s in subs)       # trivial subgroup listed


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

from fractions import Fraction

import pytest

from uebkit.counterexample165 import (
    ConjugatorError,
    TensorTriple,
    _ident_cyc,
    _tensor165,
    build_conjugators,
    conjugation_automorphism,
    export_bundle,
    weyl_decompose,
)
from uebkit.cyclo import Cyclotomic, PhasedScalar
from uebkit.exactmat import ExactMatrix, monomiality_report
from uebkit.fastcyc import CycMatrix
from uebkit.groups import (
    HeisenbergElement,
    HeisenbergGroup,
    SL2Element,
    SL2Group,
    alpha_aut,
    beta_aut,
    element_order,
    sl2_alpha,
    sl2_beta,
)
from uebkit.nice import clock_matrix, shift_matrix


# ---------------------------------------------------------------------------
# conjugators


def test_conjugator_facts_p5(built):
    c = built.conj5
    assert c.r_cubed.is_one()
    assert c.action == SL2Element(5, 4, 4, 1, 0)
    assert c.action_order == 3
    assert c.alpha_action == sl2_alpha(5)
    assert c.beta_action == sl2_beta(5)
    assert c.checks["action_is_alpha_beta"]


def test_conjugator_facts_p11(built):
    c = built.conj11
    want = PhasedScalar.of(Cyclotomic(11, {2: Fraction(-1)}))
    assert c.r_cubed == want
    assert c.r_cubed.root_of_unity_order() == 22
    assert c.action == SL2Element(11, 10, 10, 1, 0)
    assert c.action_order == 3
    assert c.checks["action_is_alpha_beta"]


def test_alpha_beta_lifts_match_abstract_maps(built):
    for conj in (built.conj5, built.conj11):
        for g in conj.group.elements():
            assert conj.alpha[g] == alpha_aut(g)
            assert conj.beta[g] == beta_aut(g)


def test_realized_action_is_alpha_beta_not_a_quartic(built):
    # the twist realizes the product alpha.beta; neither quartic word
    # in alpha and beta equals it
    for conj in (built.conj5, built.conj11):
        sl2 = SL2Group(conj.p)
        a, b = sl2_alpha(conj.p), sl2_beta(conj.p)
        assert conj.action == sl2.compose(a, b)
        q1 = sl2.compose(sl2.compose(sl2.compose(b, a), b), a)
        q2 = sl2.compose(sl2.compose(sl2.compose(a, b), a), b)
        assert conj.action != q1
        assert conj.action != q2


def test_alternate_exponent_also_builds_at_p5():
    # the twist word at p=5 gives an order-3 action for other diagonal
    # exponents as well; the postconditions decide, not the exponent
    c = build_conjugators(5, 1)
    assert c.action_order == 3


def test_conjugation_rejects_non_normalizer():
    # a transposition is unitary but does not normalize the Weyl group
    swap = ExactMatrix.from_permutation([1, 0, 2, 3, 4])
    with pytest.raises(ConjugatorError):
        conjugation_automorphism(HeisenbergGroup(5), swap)


def test_weyl_decompose_roundtrip():
    p = 5
    x, z = shift_matrix(p), clock_matrix(p)
    w = PhasedScalar.zeta(p)
    for a, b, k in ((0, 0, 0), (1, 0, 2), (3, 4, 1), (2, 2, 4)):
        m = ((z ** b) @ (x ** a)).scalar_mul(w ** k)
        dec = weyl_decompose(m, p)
        assert dec is not None
        da, db, phase = dec
        assert (da, db) == (a, b)
        assert phase == w ** k


def test_weyl_decompose_rejects_dense_and_zero():
    from uebkit.combinat import fourier_hadamard
    assert weyl_decompose(fourier_hadamard(5), 5) is None
    assert weyl_decompose(ExactMatrix.zeros(5, 5), 5) is None


# ---------------------------------------------------------------------------
# tensor triples


def test_triple_identity_needs_cancelling_phases():
    i3, i5, i11 = _ident_cyc(3, 3), _ident_cyc(5, 5), _ident_cyc(11, 11)
    n3 = CycMatrix(3, i3.a, Fraction(-1))
    n5 = CycMatrix(5, i5.a, Fraction(-1))
    assert TensorTriple((i3, i5, i11)).is_identity()
    assert TensorTriple((n3, n5, i11)).is_identity()
    assert not TensorTriple((n3, i5, i11)).is_identity()


def test_triple_product_passes_identity_slots_through():
    i3, i5, i11 = _ident_cyc(3, 3), _ident_cyc(5, 5), _ident_cyc(11, 11)
    n3 = CycMatrix(3, i3.a, Fraction(-1))
    t = TensorTriple((n3, i5, i11)) @ TensorTriple((i3, i5, i11))
    assert t.slots[0] is n3
    assert t.slots[1] is i5 and t.slots[2] is i11


def test_triple_trace_and_dim(built):
    fm = built.factors
    ident = fm.triple(built.quotient.identity)
    assert ident.dim == 165
    assert ident.trace() == 165
    # one twisted generator: the 3-slot trace vanishes
    assert fm.triple(built.group.generators[4]).trace().is_zero()


# ---------------------------------------------------------------------------
# the construction


def test_group_and_center_structure(built):
    assert built.group.order == 4_492_125
    assert len(built.center) == 165
    assert element_order(built.group, built.center_generator) == 165
    assert built.quotient.order == 27_225
    assert built.checks["generator_matrices_pinned"]
    assert built.checks["word_check_pairs"] == 1000


def test_central_member_is_a_scalar_matrix(built):
    fm = built.factors
    z3 = ((HeisenbergElement(5, 0, 0, 0), HeisenbergElement(11, 0, 0, 0)),
          HeisenbergElement(3, 0, 0, 1))
    want = ExactMatrix.identity(165).scalar_mul(PhasedScalar.zeta(3))
    assert fm.exact_matrix(z3) == want


def test_trace_sweep(report):
    assert report.trace_zero_count == 27_224
    assert len(report.trace_nonzero_labels) == 1
    assert report.identity_trace_ok


def test_niceness_report(report):
    n = report.niceness
    assert n.ok
    assert n.identity_ok and n.unitary_ok and n.trace_ok and n.cocycle_ok
    assert n.elements_checked == 27_225
    assert n.pairs_checked == 336_700
    # TensorTriple members: the sweep stays on the matrix route
    assert n.pair_route == "matrix"


def test_monomial_split(built, report):
    assert report.monomial_members == 3_025
    assert report.nonmonomial_members == 24_200
    assert not report.generator_monomiality.is_monomial
    assert report.generator_monomiality.per_matrix_nonzero == \
        (165, 165, 165, 165, 825, 1815)
    assert report.nonmonomial_witness == built.group.generators[4]
    assert not report.sampled_monomiality.is_monomial


def test_center_scalars_and_cross_routes(report):
    assert report.center_scalars_ok
    assert report.cross_ok
    assert report.cross_checks == 21


def test_report_ok_and_summary(report):
    assert report.ok
    s = report.summary()
    assert s["ok"] and s["dim"] == 165
    assert s["group_order"] == 4_492_125
    assert s["caveat"]


def test_dense_members_match_generic_tensor(built):
    # the integer-form assembly against the generic tensor route, with
    # twisted R slots at both primes and nonzero central offsets
    fm = built.factors
    zeta = PhasedScalar.zeta(165)
    for k3, k5, k11, offset in (((1, 0), (1, 2, 1), (4, 5, 0), 1),
                                ((0, 1), (3, 0, 0), (2, 9, 2), 56),
                                ((2, 2), (4, 4, 2), (0, 0, 0), 164),
                                ((1, 1), (0, 3, 0), (6, 1, 1), 33)):
        e3, e5, e11 = fm.exact3[k3], fm.exact5[k5], fm.exact11[k11]
        want = e3.tensor(e5).tensor(e11).scalar_mul(zeta ** offset)
        assert _tensor165(e3, e5, e11, offset) == want


def test_monomiality_report_reads_generators(built):
    fm = built.factors
    members = list(built.group.generators) + [built.quotient.identity]
    as_list = monomiality_report([fm.exact_matrix(t) for t in members])
    streamed = monomiality_report(fm.exact_matrix(t) for t in members)
    assert streamed == as_list
    assert not streamed.is_monomial
    assert streamed.per_matrix_nonzero == (165,) * 4 + (825, 1815, 165)
    assert monomiality_report(iter([])) == monomiality_report([])


def test_export_bundle_factor_form(built):
    bundle = export_bundle(built)
    assert bundle["dim"] == 165
    assert "generators_full" not in bundle
    assert len(bundle["factor_pools"]["3"]) == 9
    assert len(bundle["factor_pools"]["5"]) == 75
    assert len(bundle["factor_pools"]["11"]) == 363
    assert bundle["conjugators"]["5"]["action"] == [[4, 4], [1, 0]]
    assert bundle["conjugators"]["11"]["action"] == [[10, 10], [1, 0]]
    assert len(bundle["generators"]) == 6


def test_export_bundle_full_generators(built):
    bundle = export_bundle(built, factors_only=False)
    assert len(bundle["generators_full"]) == 6
    assert all(m["rows"] == 165 for m in bundle["generators_full"])

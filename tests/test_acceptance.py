"""Acceptance suite: one test per criterion, each with its runtime budget.

Every check is exact; no tolerances appear anywhere.  The pytest -v
output gives the one pass/fail line per criterion.
"""

import json
import random
import time
from fractions import Fraction
from pathlib import Path

from uebkit.cli import main
from uebkit.combinat import cyclic_latin, fourier_hadamard, h_alpha
from uebkit.cyclo import PhasedScalar
from uebkit.exactmat import ExactMatrix
from uebkit.groups import (
    HeisenbergElement,
    HeisenbergGroup,
    SL2Group,
    SubgroupView,
    acts_irreducibly,
    alpha_aut,
    beta_aut,
    element_order,
    is_automorphism,
    sl2_alpha,
    sl2_beta,
    sl2_elements_of_order,
)
from uebkit.induce import (
    character_rep,
    class_function,
    induce_character,
    induce_representation,
    sparsity_check,
)
from uebkit.nice import ProjectiveRep, pauli_rep, verify_nice
from uebkit.ueb import (
    UnitaryErrorBasis,
    apply_equivalence,
    basis_from_json,
    normalize_d2,
    pauli_basis,
    shift_and_multiply,
    verify_ueb,
    wickedness_witness,
)

from conftest import G165_SECONDS

ONE = PhasedScalar.one(1)


def budget(started: float, limit: float, label: str) -> float:
    elapsed = time.perf_counter() - started
    assert elapsed < limit, f"{label}: {elapsed:.1f}s exceeds {limit:.0f}s"
    return elapsed


def test_criterion_01_pauli_display_and_exact_verify(capsys, tmp_path):
    t0 = time.perf_counter()
    f = str(tmp_path / "pauli2.json")
    assert main(["construct", "pauli:2", "--out", f]) == 0
    assert main(["verify", "ueb", f]) == 0
    capsys.readouterr()
    basis = basis_from_json(json.loads(Path(f).read_text()))
    by_label = dict(zip(basis.labels, basis.members))
    displayed = {
        (0, 0): ExactMatrix.identity(2),
        (1, 0): ExactMatrix.from_rows([[0, 1], [1, 0]]),
        (0, 1): ExactMatrix.diagonal([ONE, -ONE]),
        (1, 1): ExactMatrix.from_rows([[0, -1], [1, 0]]),
    }
    for lab, want in displayed.items():
        assert by_label[lab].equal_up_to_phase(want) is not None
    budget(t0, 1.0, "criterion 1")


def test_criterion_02_generalized_pauli_niceness_all_pairs():
    t0 = time.perf_counter()
    for d in range(2, 13):
        r = verify_nice(pauli_rep(d), pair_mode="all")
        assert r.ok, r.summary()
        assert r.pair_mode == "all"
        assert r.pairs_checked == d ** 4
        assert r.elements_checked == d * d
    budget(t0, 30.0, "criterion 2")


def test_criterion_03_shift_multiply_d3_entrywise_and_d4(capsys, tmp_path):
    t0 = time.perf_counter()
    f3 = str(tmp_path / "sam3.json")
    assert main(["construct", "sam", "cyclic:3", "fourier:3", "--out", f3]) == 0
    assert main(["construct", "sam", "cyclic:4", "fourier:4",
                 "--out", str(tmp_path / "sam4.json")]) == 0
    capsys.readouterr()
    basis = basis_from_json(json.loads(Path(f3).read_text()))
    by_label = dict(zip(basis.labels, basis.members))
    w = PhasedScalar.zeta(3)
    zero = PhasedScalar.zero(3)
    e01 = ExactMatrix.from_rows([[0, 1, 0], [0, 0, 1], [1, 0, 0]])
    e12 = ExactMatrix.from_rows([[zero, zero, w * w],
                                 [ONE, zero, zero],
                                 [zero, w, zero]])
    assert by_label[(0, 1)] == e01
    assert by_label[(1, 2)] == e12
    for d in (3, 4):
        assert verify_ueb(
            shift_and_multiply(cyclic_latin(d), fourier_hadamard(d))).ok
    budget(t0, 5.0, "criterion 3")


def test_criterion_04_wickedness_witness_and_substitution():
    t0 = time.perf_counter()
    basis = shift_and_multiply(cyclic_latin(4), h_alpha())
    w = wickedness_witness(basis)
    assert w is not None
    t = PhasedScalar.symbol("t")
    assert list(w.diagonal) == [ONE, -ONE, t, -t]
    assert w.ratio.root_of_unity_order() is None
    i4 = PhasedScalar.zeta(4)
    fixed = UnitaryErrorBasis(
        4, tuple(m.substitute({"t": i4}) for m in basis.members), basis.labels)
    assert verify_ueb(fixed).ok
    assert wickedness_witness(fixed) is None
    budget(t0, 5.0, "criterion 4")


def _random_monomial2(rng):
    sigma = [0, 1] if rng.random() < 0.5 else [1, 0]
    zero = PhasedScalar.zero(8)
    ents = [zero] * 4
    for k in range(2):
        ents[sigma[k] * 2 + k] = PhasedScalar.zeta(8, rng.randrange(8))
    return ExactMatrix(2, 2, ents)


def test_criterion_05_normalization_of_scrambled_d2_bases():
    t0 = time.perf_counter()
    rng = random.Random(1650)
    pauli = normalize_d2(pauli_basis(2)).canonical
    for _ in range(100):
        a0 = _random_monomial2(rng)
        b0 = _random_monomial2(rng)
        order = list(range(4))
        rng.shuffle(order)
        members = []
        for k in order:
            c = PhasedScalar.zeta(8, rng.randrange(8))
            members.append((a0 @ pauli.members[k] @ b0).scalar_mul(c))
        basis = UnitaryErrorBasis(2, tuple(members), tuple(range(4)))
        res = normalize_d2(basis)
        for k, want in enumerate(pauli.members):
            assert res.canonical.members[k] == want
            got = (res.a @ basis.members[res.permutation[k]]
                   @ res.b).scalar_mul(res.scalars[k])
            assert got == want
        recovered = apply_equivalence(
            res.canonical, res.a.dagger(), res.b.dagger(),
            [c.inverse() for c in res.scalars], (0, 1, 2, 3))
        for k in range(4):
            assert recovered.members[k] == basis.members[res.permutation[k]]
    budget(t0, 10.0, "criterion 5")


def test_criterion_06_order3_sl2_elements_act_irreducibly():
    t0 = time.perf_counter()
    for p in (5, 11):
        G = SL2Group(p)
        elems = list(G.elements())
        assert len(elems) == (p + 1) * p * (p - 1)
        order3 = [g for g in elems if element_order(G, g) == 3]
        assert order3
        assert all(acts_irreducibly(g) for g in order3)
        assert sorted(order3) == sorted(sl2_elements_of_order(p, 3))
    budget(t0, 10.0, "criterion 6")


def test_criterion_07_heisenberg_automorphisms_and_gamma_cubed():
    t0 = time.perf_counter()
    for p in (5, 11):
        H = HeisenbergGroup(p)
        assert is_automorphism(H, alpha_aut)
        assert is_automorphism(H, beta_aut)
        G = SL2Group(p)
        a, b = sl2_alpha(p), sl2_beta(p)
        gamma = G.compose(b, G.compose(a, G.compose(b, a)))
        assert gamma != G.identity
        assert G.compose(gamma, G.compose(gamma, gamma)) == G.identity
    budget(t0, 60.0, "criterion 7")


def test_criterion_08_dimension165_pipeline(built, report):
    g, r = built, report
    assert g.group.order == 4_492_125
    assert len(g.center) == 165
    assert r.center_cyclic
    for conj in (g.conj5, g.conj11):
        assert conj.r_cubed.is_unit_modulus()
        assert conj.action_order == 3
        assert acts_irreducibly(conj.action)
    assert r.trace_zero_count == 27_224
    assert len(r.trace_nonzero_labels) == 1
    assert r.identity_trace_ok
    n = r.niceness
    assert n.ok
    assert n.identity_ok and n.unitary_ok and n.trace_ok and n.cocycle_ok
    assert n.elements_checked == 27_225
    assert n.pair_mode == "sampled"
    assert n.pairs_checked == 336_700
    assert r.nonmonomial_members > 0
    assert r.ok
    elapsed = G165_SECONDS["build"] + G165_SECONDS["verify"]
    assert elapsed < 300.0, f"criterion 8: {elapsed:.0f}s exceeds 300s"


def test_criterion_09_center_induction_sparsity():
    t0 = time.perf_counter()
    for d in (2, 3):
        H = HeisenbergGroup(d)
        center = SubgroupView(
            H, [HeisenbergElement(d, 0, 0, z) for z in range(d)])
        zeta = PhasedScalar.zeta(d)
        psi = class_function(center, lambda k: zeta ** k.z)
        ind = induce_representation(character_rep(psi), H)
        assert ind.index == d * d
        assert ind.dim == d * d
        assert ind.block_structure_ok()
        chi = induce_character(psi, H)
        got = ind.character()
        assert all(got.value(h) == chi.value(h) for h in H.elements())
        worst = sparsity_check(ind)
        assert worst >= 1 - Fraction(1, ind.index)
        if d == 3:
            assert worst == Fraction(8, 9)
            assert all(ind.matrix(h).zero_fraction() == Fraction(8, 9)
                       for h in H.elements())
    budget(t0, 10.0, "criterion 9")


def test_criterion_10_certification_agreement_on_corruptions():
    t0 = time.perf_counter()
    rng = random.Random(1650)
    dims = set()
    for _ in range(20):
        d = rng.randrange(2, 9)
        dims.add(d)
        rep = pauli_rep(d)
        labels = rep.labels()
        members = [rep.matrix(g) for g in labels]
        k = rng.randrange(len(members))
        i, j = rng.randrange(d), rng.randrange(d)
        m = members[k]
        ents = list(m.entries)
        ents[i * d + j] = ents[i * d + j] + ONE
        members[k] = ExactMatrix(d, d, ents, m.scale)
        ueb_ok = verify_ueb(
            UnitaryErrorBasis(d, tuple(members), tuple(labels))).ok
        table = dict(zip(labels, members))
        nice_ok = verify_nice(
            ProjectiveRep(rep.group, d, table.__getitem__, label="corrupted"),
            pair_mode="all").ok
        assert ueb_ok == nice_ok
        assert not ueb_ok
    for d in sorted(dims):
        assert verify_ueb(pauli_basis(d)).ok
        assert verify_nice(pauli_rep(d), pair_mode="all").ok
    budget(t0, 60.0, "criterion 10")

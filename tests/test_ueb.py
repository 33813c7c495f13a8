import random
from fractions import Fraction

import pytest

from uebkit.combinat import (
    LatinSquare,
    cyclic_latin,
    fourier_hadamard,
    h_alpha,
)
from uebkit import ueb
from uebkit.cli import main
from uebkit.cyclo import Cyclotomic, PhasedScalar
from uebkit.exactmat import ExactMatrix, matrix_to_json
from uebkit.groups import HeisenbergElement
from uebkit.nice import heisenberg_rep
from uebkit.ueb import (
    NormalizationError,
    UebReport,
    UnitaryErrorBasis,
    WickednessWitness,
    apply_equivalence,
    basis_from_json,
    basis_to_json,
    normalize_d2,
    pauli_basis,
    shift_and_multiply,
    verify_ueb,
    wickedness_witness,
)

ONE = PhasedScalar.one(1)


def canonical_pauli():
    one = ONE
    return UnitaryErrorBasis(
        2,
        (ExactMatrix.identity(2),
         ExactMatrix.diagonal([one, -one]),
         ExactMatrix.from_rows([[0, 1], [1, 0]]),
         ExactMatrix.from_rows([[0, 1], [-1, 0]])),
        ("I", "Z", "X", "ZX"))


def test_pauli_basis_verifies():
    for d in (2, 3):
        b = pauli_basis(d)
        rep = verify_ueb(b)
        assert rep.ok
        assert rep.pairs_checked == d * d * (d * d - 1) // 2


def test_duplicate_member_fails():
    one = ONE
    x = ExactMatrix.from_rows([[0, 1], [1, 0]])
    z = ExactMatrix.diagonal([one, -one])
    bad = UnitaryErrorBasis(2, (ExactMatrix.identity(2), x, z, x),
                            ("I", "X", "Z", "X2"))
    rep = verify_ueb(bad)
    assert rep.cardinality_ok and rep.unitary_ok
    assert not rep.orthogonality_ok
    assert ("orthogonality", "X", "X2") in rep.failures


def test_nonunitary_member_fails():
    one = ONE
    half = ExactMatrix(2, 2, ExactMatrix.identity(2).entries, scale=2)
    z = ExactMatrix.diagonal([one, -one])
    x = ExactMatrix.from_rows([[0, 1], [1, 0]])
    zx = ExactMatrix.from_rows([[0, 1], [-1, 0]])
    rep = verify_ueb(UnitaryErrorBasis(2, (half, z, x, zx), ("a", "b", "c", "d")))
    assert not rep.unitary_ok
    assert ("unitary", "a") in rep.failures


def test_empty_member_is_reported_not_raised():
    # a 0 x 0 member is a legal matrix but no unitary of dimension 1:
    # the report says so instead of raising
    rep = verify_ueb(UnitaryErrorBasis(1, [ExactMatrix(0, 0, [])], ["a"]))
    assert not rep.unitary_ok and not rep.cardinality_ok
    assert ("unitary", "a") in rep.failures and not rep.ok


def test_sam_pinned_d3_members():
    b = shift_and_multiply(cyclic_latin(3), fourier_hadamard(3))
    w = PhasedScalar.zeta(3)
    by_label = dict(zip(b.labels, b.members))
    e01 = ExactMatrix.from_rows([[0, 1, 0], [0, 0, 1], [1, 0, 0]])
    e12 = ExactMatrix.from_rows([
        [PhasedScalar.zero(3), PhasedScalar.zero(3), w * w],
        [ONE, PhasedScalar.zero(3), PhasedScalar.zero(3)],
        [PhasedScalar.zero(3), w, PhasedScalar.zero(3)]])
    assert by_label[(0, 1)] == e01
    assert by_label[(1, 2)] == e12


def test_sam_verifies_and_is_monomial():
    for d in (2, 3, 4, 5):
        b = shift_and_multiply(cyclic_latin(d), fourier_hadamard(d))
        assert verify_ueb(b).ok
        assert b.monomiality().is_monomial
    base = cyclic_latin(4)
    permuted = LatinSquare(4, tuple(base.cells[i] for i in (2, 0, 3, 1)))
    b = shift_and_multiply(permuted, fourier_hadamard(4))
    assert verify_ueb(b).ok


@pytest.mark.parametrize("latin, hadamard", [
    (cyclic_latin(4), h_alpha()),
    (cyclic_latin(5), fourier_hadamard(5)),
], ids=["cyclic4-alpha", "cyclic5-fourier5"])
def test_sam_members_equal_hand_assembly(latin, hadamard):
    # E_ij|k> = H[i,k] |L(j,k)>, written entry by entry
    d = latin.d
    b = shift_and_multiply(latin, hadamard)
    for (i, j), m in zip(b.labels, b.members):
        ents = [PhasedScalar.zero(1)] * (d * d)
        for k in range(d):
            ents[latin(j, k) * d + k] = hadamard.entry(i, k)
        want = ExactMatrix(d, d, ents, hadamard.scale)
        assert m == want and matrix_to_json(m) == matrix_to_json(want)


def test_sam_constant_equals_sequence():
    h = fourier_hadamard(3)
    a = shift_and_multiply(cyclic_latin(3), h)
    b = shift_and_multiply(cyclic_latin(3), [h, h, h])
    assert all(x == y for x, y in zip(a.members, b.members))


def test_sam_d1():
    b = shift_and_multiply(cyclic_latin(1), fourier_hadamard(1))
    assert len(b.members) == 1
    assert b.members[0] == ExactMatrix.identity(1)
    assert verify_ueb(b).ok


def test_sam_rejects_bad_inputs():
    with pytest.raises(ValueError, match="latin"):
        shift_and_multiply(LatinSquare(2, ((0, 1), (0, 1))), fourier_hadamard(2))
    with pytest.raises(ValueError, match="Hadamard"):
        shift_and_multiply(cyclic_latin(2), ExactMatrix.identity(2))
    with pytest.raises(ValueError, match="need 3"):
        shift_and_multiply(cyclic_latin(3), [fourier_hadamard(3)] * 2)


def test_sam_halpha_symbolic():
    b = shift_and_multiply(cyclic_latin(4), h_alpha())
    rep = verify_ueb(b)
    assert rep.ok
    assert rep.pairs_checked == 120
    assert b.monomiality().is_monomial


def test_wickedness_witness_on_halpha():
    b = shift_and_multiply(cyclic_latin(4), h_alpha())
    w = wickedness_witness(b)
    assert w is not None
    t = PhasedScalar.symbol("t")
    assert w.pair == ((2, 0), (0, 0))
    assert list(w.diagonal) == [ONE, -ONE, t, -t]
    assert w.ratio == t
    assert w.ratio.root_of_unity_order() is None
    assert w.ratio_position == 2


def test_wickedness_gone_after_substitution():
    b = shift_and_multiply(cyclic_latin(4), h_alpha())
    i4 = PhasedScalar.zeta(4)
    fixed = UnitaryErrorBasis(
        4, tuple(m.substitute({"t": i4}) for m in b.members), b.labels)
    assert verify_ueb(fixed).ok
    assert wickedness_witness(fixed) is None


def test_wickedness_none_on_generalized_pauli():
    assert wickedness_witness(pauli_basis(3)) is None


def test_wickedness_requires_verified_basis():
    one = ONE
    x = ExactMatrix.from_rows([[0, 1], [1, 0]])
    bad = UnitaryErrorBasis(2, (ExactMatrix.identity(2), x, x, x),
                            (0, 1, 2, 3))
    with pytest.raises(ValueError):
        wickedness_witness(bad)


def test_normalize_canonical_is_fixed():
    res = normalize_d2(canonical_pauli())
    assert res.a == ExactMatrix.identity(2)
    assert res.b == ExactMatrix.identity(2)
    assert all(c == ONE for c in res.scalars)
    assert res.permutation == (0, 1, 2, 3)


def test_normalize_pauli_rep_order():
    res = normalize_d2(pauli_basis(2))
    assert res.a == ExactMatrix.identity(2)
    assert res.b == ExactMatrix.identity(2)
    assert res.permutation == (0, 1, 2, 3)
    assert res.scalars == (ONE, ONE, ONE, -ONE)


def test_normalize_half_phase_example():
    one = ONE
    z8 = PhasedScalar.zeta(8)
    members = (
        ExactMatrix.identity(2),
        ExactMatrix.diagonal([one, -one]),
        ExactMatrix.from_rows([[PhasedScalar.zero(8), one], [z8 * z8, PhasedScalar.zero(8)]]),
        ExactMatrix.from_rows([[PhasedScalar.zero(8), one], [-(z8 * z8), PhasedScalar.zero(8)]]),
    )
    basis = UnitaryErrorBasis(2, members, (0, 1, 2, 3))
    assert verify_ueb(basis).ok
    res = normalize_d2(basis)
    assert res.a == ExactMatrix.diagonal([one, PhasedScalar.zeta(8, 7)])
    assert res.b == ExactMatrix.diagonal([one, z8])
    for k, (c, p) in enumerate(zip(res.scalars, res.permutation)):
        got = (res.a @ basis.members[p] @ res.b).scalar_mul(c)
        assert got == res.canonical.members[k]


def _random_monomial2(rng):
    sigma = [0, 1] if rng.random() < 0.5 else [1, 0]
    zero = PhasedScalar.zero(8)
    ents = [zero] * 4
    for k in range(2):
        ents[sigma[k] * 2 + k] = PhasedScalar.zeta(8, rng.randrange(8))
    return ExactMatrix(2, 2, ents)


def test_normalize_scrambled_roundtrip():
    rng = random.Random(20260819)
    pauli = canonical_pauli()
    for _ in range(25):
        a0 = _random_monomial2(rng)
        b0 = _random_monomial2(rng)
        order = list(range(4))
        rng.shuffle(order)
        members = []
        for k in order:
            c = PhasedScalar.zeta(8, rng.randrange(8))
            members.append((a0 @ pauli.members[k] @ b0).scalar_mul(c))
        basis = UnitaryErrorBasis(2, members, tuple(range(4)))
        res = normalize_d2(basis)
        recovered = apply_equivalence(
            res.canonical, res.a.dagger(), res.b.dagger(),
            [c.inverse() for c in res.scalars], (0, 1, 2, 3))
        for k in range(4):
            assert recovered.members[k] == basis.members[res.permutation[k]]


def test_normalize_refuses_dense():
    one = ONE
    f = ExactMatrix.from_rows([[one, one], [one, -one]])
    z = ExactMatrix.diagonal([one, -one])
    x = ExactMatrix.from_rows([[0, 1], [1, 0]])
    zx = ExactMatrix.from_rows([[0, 1], [-1, 0]])
    basis = UnitaryErrorBasis(2, (f, z, x, zx), (0, 1, 2, 3))
    with pytest.raises(NormalizationError):
        normalize_d2(basis)
    with pytest.raises(NormalizationError):
        normalize_d2(UnitaryErrorBasis(3, tuple(pauli_basis(3).members),
                                       tuple(range(9))))


def test_basis_json_roundtrip():
    for basis in (pauli_basis(2),
                  shift_and_multiply(cyclic_latin(4), h_alpha())):
        back = basis_from_json(basis_to_json(basis))
        assert back.d == basis.d
        assert back.labels == basis.labels
        assert all(x == y for x, y in zip(back.members, basis.members))


# -- wickedness: the search against a reference -------------------------------


def _dense_witness(basis):
    """The search as one dense product per ordered pair, written apart from
    wickedness_witness as its reference."""
    n = len(basis.members)
    for j in range(n):
        anchor = basis.members[j].dagger()
        for i in range(n):
            if i == j:
                continue
            p = basis.members[i] @ anchor
            d = p.rows
            if any(p.entries[r * d + c].terms
                   for r in range(d) for c in range(d) if r != c):
                continue
            diag = [p.entries[k * d + k] * p.scale for k in range(d)]
            if not diag[0].terms:
                continue
            for k in range(1, d):
                try:
                    r = diag[k] * diag[0].inverse()
                except (ValueError, ZeroDivisionError):
                    continue
                if r.root_of_unity_order() is None:
                    return ((basis.labels[i], basis.labels[j]), tuple(diag),
                            r, k)
    return None


def _mixed_d2():
    """U P U^dagger over the four Paulis for U = H T, with H the Hadamard
    gate (entries +-1/sqrt(2) in Q(zeta_8)) and T = diag(1, zeta_8): the
    images of I and Z (U Z U^dagger = X) are monomial, the other two dense,
    so verify_ueb takes the matrix route."""
    a = (PhasedScalar.zeta(8) + PhasedScalar.zeta(8, 7)) * Fraction(1, 2)
    u = ExactMatrix.from_rows([[a, a], [a, -a]]) @ \
        ExactMatrix.diagonal([ONE, PhasedScalar.zeta(8)])
    members = [u @ p @ u.dagger() for p in canonical_pauli().members]
    return UnitaryErrorBasis(2, members, ("I", "Z'", "X'", "ZX'"))


def _alpha_times_hadamard():
    """The h_alpha basis times one dense unitary W on the right: every
    member is dense, and E W (F W)^dagger = E F^dagger, so the dense
    route meets the same witness."""
    w = ExactMatrix.from_rows([[1, 1, 1, 1], [1, -1, 1, -1],
                               [1, 1, -1, -1],
                               [1, -1, -1, 1]]).scalar_mul(Fraction(1, 2))
    b = shift_and_multiply(cyclic_latin(4), h_alpha())
    return UnitaryErrorBasis(4, [m @ w for m in b.members], b.labels)


def _column_phases():
    """Shift-and-multiply with F_4 for even j and F_4 diag(1, 1, t, t) for
    odd j.  Members share a permutation only within one j, where the
    ratios are roots of unity, so there is no witness; a pair from two
    different j would show t if its permutations were not compared."""
    t = PhasedScalar.symbol("t")
    f = fourier_hadamard(4)
    g = f @ ExactMatrix.diagonal([ONE, ONE, t, t])
    return shift_and_multiply(cyclic_latin(4), [f, g, f, g])


_WICKEDNESS_CASES = {
    **{f"pauli{d}": (lambda d=d: pauli_basis(d)) for d in (2, 3, 4, 5)},
    "cyclic4-alpha": lambda: shift_and_multiply(cyclic_latin(4), h_alpha()),
    "cyclic5-fourier5": lambda: shift_and_multiply(cyclic_latin(5),
                                                   fourier_hadamard(5)),
    "column-phases": _column_phases,
    "mixed-d2": _mixed_d2,
    "alpha-times-hadamard": _alpha_times_hadamard,
}


@pytest.mark.parametrize("case", sorted(_WICKEDNESS_CASES))
def test_wickedness_routes_agree(case):
    basis = _WICKEDNESS_CASES[case]()
    assert verify_ueb(basis).ok
    want = _dense_witness(basis)
    got = wickedness_witness(basis)
    if want is None:
        assert got is None
        return
    pair, diag, ratio, position = want
    assert got.pair == pair
    assert list(got.diagonal) == list(diag)
    assert got.ratio == ratio
    assert got.ratio_position == position
    assert got.summary() == WickednessWitness(pair, diag, ratio,
                                              position).summary()


def _count_products(monkeypatch):
    calls = []
    real = ExactMatrix.__matmul__

    def counting(self, other):
        calls.append(1)
        return real(self, other)

    monkeypatch.setattr(ExactMatrix, "__matmul__", counting)
    return calls


def test_wickedness_cases_reach_every_route(monkeypatch):
    mixed = _mixed_d2()
    assert [m.is_monomial() for m in mixed.members] == \
        [True, True, False, False]
    assert not any(m.is_monomial() for m in _alpha_times_hadamard().members)
    assert wickedness_witness(_alpha_times_hadamard()) is not None
    # off the phase route every ordered pair forms its product, monomial
    # members too: n (n - 1) = 12
    report = verify_ueb(mixed)
    assert report.ok and report.pair_route == "matrix"
    calls = _count_products(monkeypatch)
    assert wickedness_witness(mixed, report) is None
    assert len(calls) == 12


def test_wickedness_on_monomial_members_forms_no_product(monkeypatch):
    basis = shift_and_multiply(cyclic_latin(7), fourier_hadamard(7))
    report = verify_ueb(basis)
    assert report.ok
    calls = _count_products(monkeypatch)
    assert wickedness_witness(basis, report) is None
    assert len(calls) == 0


def _corrupt_monomial_data(monkeypatch):
    # a sign flipped in the monomial data of member (0, 0) would move the
    # diagonal of the (1, -1, t, -t) witness.  h_alpha's entries are not
    # roots of unity, so verify_ueb takes the matrix route and passes, and
    # the search forms each product from the members themselves
    basis = shift_and_multiply(cyclic_latin(4), h_alpha())
    target = basis.members[0]
    real = ExactMatrix.monomial_data

    def wrong(self):
        data = real(self)
        if self is target:
            sigma, values = data
            return sigma, [-values[0]] + values[1:]
        return data

    monkeypatch.setattr(ExactMatrix, "monomial_data", wrong)
    return basis


def _assert_halpha_witness(w):
    t = PhasedScalar.symbol("t")
    assert w.pair == ((2, 0), (0, 0))
    assert list(w.diagonal) == [ONE, -ONE, t, -t]


def test_monomial_route_witness_is_rechecked(monkeypatch):
    # the witness is read from the exact product, so corrupted monomial
    # data neither fails verify_ueb nor moves the witness
    basis = _corrupt_monomial_data(monkeypatch)
    rep = verify_ueb(basis)
    assert rep.ok and rep.pair_route == "matrix"
    _assert_halpha_witness(wickedness_witness(basis, rep))


def test_wickedness_recheck_without_verify_ueb(monkeypatch):
    # the same with no report given: wickedness_witness runs verify_ueb
    # itself, and its search still reads no monomial data
    basis = _corrupt_monomial_data(monkeypatch)
    _assert_halpha_witness(wickedness_witness(basis))


# -- verify_ueb: the phase pair route against the dense one -------------------


def _edit_member(basis, k, f):
    members = list(basis.members)
    members[k] = f(members[k])
    return UnitaryErrorBasis(basis.d, members, basis.labels)


def _swap_columns(m, a, b):
    ents = list(m.entries)
    for i in range(m.rows):
        ents[i * m.cols + a], ents[i * m.cols + b] = \
            ents[i * m.cols + b], ents[i * m.cols + a]
    return ExactMatrix(m.rows, m.cols, ents, m.scale)


def _set_first_nonzero(f):
    def edit(m):
        ents = list(m.entries)
        idx = next(i for i, e in enumerate(ents) if e.terms)
        ents[idx] = f(ents[idx])
        return ExactMatrix(m.rows, m.cols, ents, m.scale)
    return edit


def _heisenberg3_section():
    rep = heisenberg_rep(3)
    labels = [(x, y) for x in range(3) for y in range(3)]
    return UnitaryErrorBasis(
        3, [rep.matrix(HeisenbergElement(3, x, y, 0)) for x, y in labels],
        labels)


def _partial_agreement():
    """Not Latin: P_sigma diag(w) for w a row of the 4 x 4 Walsh matrix and
    sigma in (id, (0 1), s, s^2), s the 4-cycle.  id and (0 1) agree on
    columns 2 and 3, where half their sums vanish; (0 1) and s agree on
    column 0 only, so none of theirs does."""
    walsh = [[1, 1, 1, 1], [1, -1, 1, -1], [1, 1, -1, -1], [1, -1, -1, 1]]
    perms = [[0, 1, 2, 3], [1, 0, 2, 3], [1, 2, 3, 0], [2, 3, 0, 1]]
    members = [ExactMatrix.monomial(p, w) for p in perms for w in walsh]
    return UnitaryErrorBasis(4, members, [(a, b) for a in range(4)
                                          for b in range(4)])


def _ueb_route_cases():
    """(name, basis, the route verify_ueb should report)."""
    p3, p5 = pauli_basis(3), pauli_basis(5)
    one_plus_zeta = PhasedScalar.of(Cyclotomic.one(5) + Cyclotomic.zeta(5))
    return [
        *[(f"pauli:{d}", pauli_basis(d), "phase") for d in range(2, 7)],
        ("heisenberg:3", _heisenberg3_section(), "phase"),
        ("sam:cyclic:5,fourier:5",
         shift_and_multiply(cyclic_latin(5), fourier_hadamard(5)), "phase"),
        ("partial agreement", _partial_agreement(), "phase"),
        # the sign of the scale is folded into the exponents
        ("scale -1", _edit_member(p3, 4, lambda m: m.scalar_mul(-1)),
         "phase"),
        # an order-4 entry among order-3 ones: N = 12
        ("entry zeta_4", _edit_member(p3, 1, _set_first_nonzero(
            lambda e: PhasedScalar.zeta(4))), "phase"),
        # still unitary and monomial: the rejected pairs are re-checked
        ("swapped columns",
         _edit_member(p3, 1, lambda m: _swap_columns(m, 0, 1)), "phase"),
        ("entry times zeta", _edit_member(p3, 1, _set_first_nonzero(
            lambda e: e * PhasedScalar.zeta(3))), "phase"),
        # not unitary, as p = 2, but the pairs keep the phase route
        ("scale 2", _edit_member(p3, 4, lambda m: m.scalar_mul(2)), "phase"),
        # monomial, but not over roots of unity: the dense route
        ("sam:cyclic:4,alpha",
         shift_and_multiply(cyclic_latin(4), h_alpha()), "matrix"),
        ("entry 1+zeta_5", _edit_member(p5, 1, _set_first_nonzero(
            lambda e: one_plus_zeta)), "matrix"),
        # no members, so none is monomial: all([]) would say otherwise
        ("no members", UnitaryErrorBasis(2, (), ()), "matrix"),
    ]


def test_ueb_routes_give_the_same_report(monkeypatch):
    cases = _ueb_route_cases()
    fast = {}
    for name, basis, route in cases:
        report = verify_ueb(basis)
        assert report.pair_route == route, name
        fast[name] = report
    named = {name: basis for name, basis, _ in cases}
    assert ueb._phase_data(named["entry zeta_4"].members, 3)[0] == 12
    # -1 = zeta_6^3: member 4's exponents move by 3, and |scale| stays 1
    _, (plus, minus) = ueb._phase_data(
        [p.members[4] for p in (pauli_basis(3), named["scale -1"])], 3)
    assert minus[1] == [(e + 3) % 6 for e in plus[1]]
    assert plus[2:] == minus[2:] == (1, 1)
    monkeypatch.setattr(ExactMatrix, "monomial_data", lambda self: None)
    for name, basis, _ in cases:
        slow = verify_ueb(basis)
        assert slow.pair_route == "matrix"
        assert slow.failures == fast[name].failures, name
        want, got = fast[name].summary(), slow.summary()
        want.pop("pair_route")
        got.pop("pair_route")
        assert want == got, name
    assert not fast["swapped columns"].orthogonality_ok
    assert not fast["entry times zeta"].orthogonality_ok
    assert not fast["entry zeta_4"].orthogonality_ok
    assert fast["scale -1"].ok and not fast["scale 2"].unitary_ok
    # 8 of the 16 pairs of id and (0 1) fail, and all 16 of (0 1) and s
    assert len(fast["partial agreement"].failures) == 24


def test_ueb_failures_past_the_cap_match(monkeypatch):
    # more than 32 failures: both routes stop at the same pair
    p = pauli_basis(4)
    basis = UnitaryErrorBasis(4, [p.members[0]] * 10 + list(p.members[10:]),
                              p.labels)
    fast = verify_ueb(basis)
    monkeypatch.setattr(ExactMatrix, "monomial_data", lambda self: None)
    slow = verify_ueb(basis)
    assert fast.pair_route == "phase" and slow.pair_route == "matrix"
    assert len(fast.failures) > 32
    assert (fast.failures, fast.pairs_checked) == \
        (slow.failures, slow.pairs_checked)


def test_monomial_route_takes_one_dense_inner_product(monkeypatch):
    calls = []
    real = ueb.hs_inner

    def counting(a, b):
        calls.append(1)
        return real(a, b)

    monkeypatch.setattr(ueb, "hs_inner", counting)
    report = verify_ueb(pauli_basis(5))
    assert report.ok and report.pair_route == "phase"
    assert report.pairs_checked == 300
    assert len(calls) == 1


def test_monomial_route_sample_pair_is_rechecked(monkeypatch):
    # members 0 and 1 are equal, so not orthogonal; data that moves member
    # 1 to another permutation would pass the pair without the dense
    # re-check of the pair (0, 1)
    second = ExactMatrix.identity(2)
    basis = UnitaryErrorBasis(2, [ExactMatrix.identity(2), second],
                              ["a", "b"])
    real = ExactMatrix.monomial_data

    def wrong(self):
        sigma, values = real(self)
        return (sigma[::-1], values) if self is second else (sigma, values)

    monkeypatch.setattr(ExactMatrix, "monomial_data", wrong)
    with pytest.raises(ArithmeticError, match="phase form disagrees"):
        verify_ueb(basis)


# -- wickedness: no search on the phase form ---------------------------------


def _passed(basis, route):
    """A passing report of verify_ueb on route, whether or not basis passes."""
    return UebReport(basis.d, True, True, True, 0, (), route)


def _never(*args):
    raise AssertionError("wickedness_witness made a call it should not")


def test_wickedness_early_exit_agrees_with_the_search(monkeypatch):
    # five of these bases fail the definition on purpose; the phase form
    # has no witness whether or not a basis passes, so each is handed a
    # passing report of either route
    phase = [(name, basis) for name, basis, route in _ueb_route_cases()
             if route == "phase"]
    assert len(phase) == 13
    # the report alone picks the route
    monkeypatch.setattr(ueb, "_phase_data", _never)
    monkeypatch.setattr(ExactMatrix, "monomial_data", _never)
    early = {name: wickedness_witness(basis, _passed(basis, "phase"))
             for name, basis in phase}
    for name, basis in phase:
        assert early[name] is None, name
        assert wickedness_witness(basis, _passed(basis, "matrix")) is None, \
            name
        assert _dense_witness(basis) is None, name


def test_wickedness_on_the_phase_form_reads_no_ratio(monkeypatch):
    calls = []
    real = PhasedScalar.root_of_unity_order

    def counting(self):
        calls.append(1)
        return real(self)

    monkeypatch.setattr(PhasedScalar, "root_of_unity_order", counting)
    assert wickedness_witness(pauli_basis(5)) is None
    assert calls == []
    # the search, which the phase form skips, reads ratios of pauli:5
    monkeypatch.setattr(ueb, "_phase_data", lambda members, d: None)
    assert wickedness_witness(pauli_basis(5)) is None
    assert len(calls) > 0


def test_analyze_wickedness_reads_the_phase_form_once(monkeypatch, capsys):
    calls = []
    real = ueb._phase_data

    def counting(members, d):
        calls.append(1)
        return real(members, d)

    monkeypatch.setattr(ueb, "_phase_data", counting)
    assert main(["analyze", "wickedness", "sam:cyclic:5,fourier:5"]) == 0
    assert len(calls) == 1


def test_wickedness_refuses_a_failed_report_without_verifying(monkeypatch):
    basis = pauli_basis(2)
    failed = UebReport(2, True, False, True, 6, (("unitary", (0, 1)),))
    monkeypatch.setattr(ueb, "verify_ueb", _never)
    with pytest.raises(ValueError, match="verified basis"):
        wickedness_witness(basis, failed)

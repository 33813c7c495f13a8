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
from uebkit.cyclo import Cyclotomic, PhasedScalar
from uebkit.exactmat import ExactMatrix, matrix_to_json
from uebkit.groups import HeisenbergElement
from uebkit.nice import heisenberg_rep
from uebkit.ueb import (
    NormalizationError,
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


# -- wickedness: the monomial route against the dense search -----------------


def _dense_witness(basis):
    """The search as one dense product per ordered pair, kept as the
    reference for wickedness_witness's monomial route."""
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
    images of I and Z (U Z U^dagger = X) are monomial, the other two dense."""
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
    # only the two ordered pairs of dense members form a product
    calls = _count_products(monkeypatch)
    assert wickedness_witness(mixed, assume_verified=True) is None
    assert len(calls) == 2


def test_wickedness_on_monomial_members_forms_no_product(monkeypatch):
    basis = shift_and_multiply(cyclic_latin(7), fourier_hadamard(7))
    assert verify_ueb(basis).ok
    calls = _count_products(monkeypatch)
    assert wickedness_witness(basis, assume_verified=True) is None
    assert len(calls) == 0


def test_monomial_route_witness_is_rechecked(monkeypatch):
    # a sign flipped in the data of member (0, 0) leaves the (1, -1, t, -t)
    # witness in place but with the wrong diagonal; the dense product of the
    # pair catches it
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
    with pytest.raises(ArithmeticError, match="monomial data"):
        wickedness_witness(basis)


def test_wickedness_recheck_without_verify_ueb(monkeypatch):
    # the case above with the definition check skipped, so the witness
    # re-check of wickedness_witness itself raises
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
    with pytest.raises(ArithmeticError, match="product of members"):
        wickedness_witness(basis, assume_verified=True)


# -- verify_ueb: the monomial pair route against the dense one ----------------


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


def _ueb_route_cases():
    """(name, basis, the route verify_ueb should report)."""
    p3, p5 = pauli_basis(3), pauli_basis(5)
    one_plus_zeta = PhasedScalar.of(Cyclotomic.one(5) + Cyclotomic.zeta(5))
    return [
        *[(f"pauli:{d}", pauli_basis(d), "monomial") for d in range(2, 7)],
        ("heisenberg:3", _heisenberg3_section(), "monomial"),
        ("sam:cyclic:5,fourier:5",
         shift_and_multiply(cyclic_latin(5), fourier_hadamard(5)), "monomial"),
        ("sam:cyclic:4,alpha",
         shift_and_multiply(cyclic_latin(4), h_alpha()), "monomial"),
        # still unitary and monomial: the rejected pairs are re-checked
        ("swapped columns",
         _edit_member(p3, 1, lambda m: _swap_columns(m, 0, 1)), "monomial"),
        ("entry times zeta", _edit_member(p3, 1, _set_first_nonzero(
            lambda e: e * PhasedScalar.zeta(3))), "monomial"),
        # a member that is not unitary sends the pairs to the dense route
        ("scale 2", _edit_member(p3, 4, lambda m: m.scalar_mul(2)), "matrix"),
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


def test_ueb_failures_past_the_cap_match(monkeypatch):
    # more than 32 failures: both routes stop at the same pair
    p = pauli_basis(4)
    basis = UnitaryErrorBasis(4, [p.members[0]] * 10 + list(p.members[10:]),
                              p.labels)
    fast = verify_ueb(basis)
    monkeypatch.setattr(ExactMatrix, "monomial_data", lambda self: None)
    slow = verify_ueb(basis)
    assert fast.pair_route == "monomial" and slow.pair_route == "matrix"
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
    assert report.ok and report.pair_route == "monomial"
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
    with pytest.raises(ArithmeticError, match="monomial data disagrees"):
        verify_ueb(basis)

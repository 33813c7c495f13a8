import json
import random
from fractions import Fraction

import pytest

import uebkit.exactmat as exactmat
from uebkit.cyclo import (
    Cyclotomic,
    PhasedScalar,
    scalar_from_json,
    scalar_to_json,
)
from uebkit.exactmat import (
    ExactMatrix,
    matrix_from_json,
    matrix_to_json,
    monomiality_report,
)


def fourier(d):
    z = Cyclotomic.zeta(d) if d > 1 else Cyclotomic.one(1)
    return ExactMatrix.from_rows(
        [[z ** (i * j) for j in range(d)] for i in range(d)])


def shift(d):
    # X|x> = |x-1 mod d>
    return ExactMatrix.from_permutation([(x - 1) % d for x in range(d)])


def clock(d):
    return ExactMatrix.diagonal([Cyclotomic.zeta(d) ** x for x in range(d)])


def random_matrix(rng, d, order=4):
    ents = [[Cyclotomic(order, {rng.randrange(order): Fraction(rng.randrange(-2, 3))})
             for _ in range(d)] for _ in range(d)]
    return ExactMatrix.from_rows(ents)


def test_constructors_and_access():
    p = ExactMatrix.from_permutation([1, 2, 0])
    assert p.entry(1, 0).is_one()
    assert p.entry(2, 1).is_one()
    assert p.entry(0, 2).is_one()
    assert p.nonzero_count() == 3
    with pytest.raises(ValueError):
        ExactMatrix.from_permutation([0, 0, 1])
    with pytest.raises(ValueError):
        ExactMatrix(2, 2, [PhasedScalar.one()] * 4, 0)
    with pytest.raises(ValueError):
        ExactMatrix.from_rows([[1, 2], [3]])


def test_product_against_hand_value():
    x, z = shift(2), clock(2)
    xz = x @ z
    assert xz == ExactMatrix.from_rows([[0, -1], [1, 0]])
    # X Z = -(Z X) at d = 2
    zx = z @ x
    assert xz == zx.scalar_mul(-1)


def test_algebra_random():
    rng = random.Random(5)
    for _ in range(25):
        a, b, c = (random_matrix(rng, 3) for _ in range(3))
        assert (a @ b) @ c == a @ (b @ c)
        assert (a @ b).dagger() == b.dagger() @ a.dagger()
        assert (a @ b).trace() == (b @ a).trace()


def test_tensor_mixed_products():
    rng = random.Random(9)
    a, c = random_matrix(rng, 2, order=4), random_matrix(rng, 2, order=4)
    b, d = random_matrix(rng, 3, order=3), random_matrix(rng, 3, order=3)
    assert a.tensor(b) @ c.tensor(d) == (a @ c).tensor(b @ d)
    assert a.tensor(b).trace() == a.trace() * b.trace()


def test_scaled_unitarity():
    assert shift(3).is_scaled_unitary() == 1
    assert clock(5).is_scaled_unitary() == 1
    f = fourier(3)
    assert f.is_scaled_unitary() == 3
    assert ExactMatrix(3, 3, f.entries, Fraction(1, 3)).is_scaled_unitary() \
        == Fraction(1, 3)
    assert shift(2).tensor(clock(3)).is_scaled_unitary() == 1
    assert ExactMatrix.from_rows([[1, 1], [0, 1]]).is_scaled_unitary() is None


def test_equality_with_scales():
    a = ExactMatrix.from_rows([[2, 0], [0, 2]])
    b = ExactMatrix(2, 2, ExactMatrix.identity(2).entries, Fraction(2))
    assert a == b
    assert not (a == ExactMatrix.identity(2))


def test_equal_up_to_phase():
    z = clock(4)
    w = z.scalar_mul(PhasedScalar.zeta(8, 3))
    c = w.equal_up_to_phase(z)
    assert c is not None and c == PhasedScalar.zeta(8, 3)
    assert z.equal_up_to_phase(shift(4)) is None
    # scalar multiple that is not unit modulus does not count
    assert z.scalar_mul(2).equal_up_to_phase(z) is None
    # symbolic entries
    t = PhasedScalar.symbol("t")
    m = ExactMatrix.diagonal([PhasedScalar.one(), t])
    c2 = m.scalar_mul(t).equal_up_to_phase(m)
    assert c2 is not None and c2 == t


def test_equal_up_to_phase_multi_term_entries():
    # a multi-term entry has no inverse: the phase is a term of the pivot
    # over a term of the other side, then checked on every entry
    one, t = PhasedScalar.one(), PhasedScalar.symbol("t")
    a = ExactMatrix.diagonal([one + t, one - t])
    b = ExactMatrix.diagonal([t + t * t, t - t * t])
    assert a.equal_up_to_phase(b) == PhasedScalar.symbol("t", -1)
    assert b.equal_up_to_phase(a) == t
    assert ExactMatrix.diagonal([one + t, one + t]).equal_up_to_phase(b) is None
    m = ExactMatrix.from_rows([[one + t]])
    z5 = PhasedScalar.zeta(5)
    assert ExactMatrix.from_rows([[z5 * (one + t)]]).equal_up_to_phase(m) == z5
    assert ExactMatrix.from_rows([[(one + t) * 2]]).equal_up_to_phase(m) is None


def test_equal_up_to_phase_tries_every_term_of_the_pivot():
    # c times the first term of b is some term of a = c * b, not always the
    # one with the smallest key: for b = t^-1 + 1, a = c * b sorts () first
    one, t = PhasedScalar.one(), PhasedScalar.symbol("t")
    ti = PhasedScalar.symbol("t", -1)
    b = ExactMatrix.from_rows([[ti + one]])
    assert ExactMatrix.from_rows([[t * (ti + one)]]).equal_up_to_phase(b) == t
    assert ExactMatrix.from_rows([[t * ti + t]]).equal_up_to_phase(b) == t
    # a zeta_4 factor, keys (), t and t^-1, and sides at orders 12 and 15
    z3 = PhasedScalar.zeta(3)
    rows = [[one + ti, z3 * t], [(t - ti * 2) * z3 * z3, t + ti + 3]]
    c = PhasedScalar.zeta(4) * ti
    a = ExactMatrix.from_rows([[c * x for x in row] for row in rows])
    b = ExactMatrix.from_rows([[x.promote(15) for x in row] for row in rows])
    assert (a.entry(0, 1).order, b.entry(0, 1).order) == (12, 15)
    got = a.equal_up_to_phase(b)
    assert got == c and got.order == 60
    assert b.equal_up_to_phase(a) == c.conj()
    # not proportional: off the pivot, and at the pivot
    off = ExactMatrix.from_rows([[c * rows[0][0], c * rows[0][1]],
                                 [c * rows[1][0], c * (t + ti + 2)]])
    assert off.equal_up_to_phase(b) is None
    assert ExactMatrix.from_rows([[t + one + ti * 2]]).equal_up_to_phase(
        ExactMatrix.from_rows([[ti + one]])) is None


def test_shape_must_not_be_negative():
    # the entry count alone passes -2 x -2 (4 entries) and -1 x 0 (none)
    with pytest.raises(ValueError, match="negative"):
        ExactMatrix(-2, -2, [PhasedScalar.one()] * 4)
    with pytest.raises(ValueError, match="negative"):
        ExactMatrix(-1, 0, [])
    # 0 x 0 stays legal: identity(0) and from_rows([]) build it
    empty = ExactMatrix(0, 0, [])
    assert ExactMatrix.identity(0) == empty == ExactMatrix.from_rows([])
    # every s satisfies the 0 x 0 identity, so no scale is named
    assert empty.is_scaled_unitary() is None
    # no entries, no zeros: as monomiality_report reads an empty input
    assert empty.zero_fraction() == 0 == monomiality_report([]).zero_fraction

def test_monomial_structure():
    x = shift(4)
    assert x.is_monomial()
    assert x.zero_fraction() == Fraction(3, 4)
    assert not fourier(3).is_monomial()
    sigma, values = (shift(3) @ clock(3)).monomial_data()
    assert sigma == [2, 0, 1]
    rep = monomiality_report([shift(2), clock(2), shift(2) @ clock(2),
                              ExactMatrix.identity(2)])
    assert rep.is_monomial
    assert rep.zero_fraction == Fraction(1, 2)
    assert rep.per_matrix_nonzero == (2, 2, 2, 2)
    rep2 = monomiality_report([fourier(2)])
    assert not rep2.is_monomial and rep2.zero_fraction == 0


@pytest.mark.parametrize("rows", [
    [[1, 0, 0], [1, 0, 0], [0, 0, 1]],     # one nonzero per row, column 0 twice
    [[1, 0], [0, 0]],                      # a zero row
    # not square; read as 2 x 2 its first four entries would be monomial
    [[1, 0, 0], [1, 0, 0]],
], ids=["repeated-column", "zero-row", "non-square"])
def test_monomial_data_refuses_non_monomial(rows):
    m = ExactMatrix.from_rows(rows)
    assert m.monomial_data() is None
    assert not m.is_monomial()
    assert not monomiality_report([m]).is_monomial


def test_monomial_inverts_monomial_data():
    rng = random.Random(9)
    for d in range(1, 6):
        sigma = list(range(d))
        rng.shuffle(sigma)
        values = [PhasedScalar.zeta(6, rng.randrange(6)) for _ in range(d)]
        m = ExactMatrix.monomial(sigma, values, Fraction(-1, 3))
        assert m.scale == Fraction(-1, 3)
        assert m.monomial_data() == (sigma, values)
        assert ExactMatrix.monomial(*m.monomial_data(), m.scale) == m
    x = shift(3) @ clock(3)
    assert ExactMatrix.monomial(*x.monomial_data()) == x


@pytest.mark.parametrize("sigma, values", [
    ([0, 0, 1], [1, 1, 1]),
    ([1, 2, 3], [1, 1, 1]),
    ([1, 0], [1]),
    ([1, 0], [1, 1, 1]),
], ids=["repeated", "out-of-range", "short-values", "long-values"])
def test_monomial_refuses_bad_input(sigma, values):
    with pytest.raises(ValueError):
        ExactMatrix.monomial(sigma, values)


def test_power():
    x = shift(5)
    assert x ** 5 == ExactMatrix.identity(5)
    assert x ** 0 == ExactMatrix.identity(5)
    assert x ** 3 == x @ x @ x


def test_json_round_trip():
    t = PhasedScalar.symbol("t")
    mats = [
        fourier(3),
        ExactMatrix(3, 3, fourier(3).entries, Fraction(-2, 3)),
        ExactMatrix.diagonal([PhasedScalar.one(), t, t ** -1]),
        ExactMatrix.zeros(2, 3),
    ]
    for m in mats:
        back = matrix_from_json(matrix_to_json(m))
        assert back == m and back.scale == m.scale


def test_json_codec_matches_per_entry_route():
    # The matrix codec codes each distinct entry once; the plain per-entry
    # route through scalar_to_json / scalar_from_json must agree with it.
    t = PhasedScalar.symbol("t")
    z6 = PhasedScalar.zero(6)
    mats = [
        ExactMatrix(3, 3, fourier(3).entries, Fraction(-2, 3)),
        ExactMatrix(2, 3, [PhasedScalar.zero(1), z6, PhasedScalar.zeta(6),
                           z6, PhasedScalar.zero(1), PhasedScalar.zeta(6)]),
        ExactMatrix.diagonal([t, t ** -1, t, PhasedScalar.one(), t ** -1]),
        ExactMatrix.diagonal([PhasedScalar.one() + t] * 3),
        ExactMatrix.diagonal([PhasedScalar.zeta(12, 5) * Fraction(1, 2)] * 2
                             + [PhasedScalar.of(Fraction(-3, 7), 4)]),
    ]
    for m in mats:
        obj = matrix_to_json(m)
        plain = {"rows": m.rows, "cols": m.cols, "scale": str(m.scale),
                 "entries": [scalar_to_json(e) for e in m.entries]}
        assert json.dumps(obj, sort_keys=True) == \
            json.dumps(plain, sort_keys=True)
        fast = matrix_from_json(json.loads(json.dumps(obj)))
        slow = [scalar_from_json(e) for e in obj["entries"]]
        assert len(fast.entries) == len(slow)
        for a, b in zip(fast.entries, slow):
            assert a == b and a.order == b.order
        assert fast.scale == m.scale


def test_json_decode_ignores_coefficient_key_order():
    one = {"order": 1, "coeffs": {"0": "1"}, "symbols": {}}
    a = {"order": 6, "coeffs": {"0": "1/2", "1": "-3"}, "symbols": {}}
    b = {"order": 6, "coeffs": {"1": "-3", "0": "1/2"}, "symbols": {}}
    m = matrix_from_json({"rows": 2, "cols": 2, "scale": "1",
                          "entries": [a, one, one, b]})
    assert m.entries[0] == m.entries[3]
    assert m.entries[0].order == m.entries[3].order == 6
    assert m.entries[0] == PhasedScalar.of(
        Cyclotomic(6, {0: Fraction(1, 2), 1: -3}))


# ---------------------------------------------------------------------------
# dense dot products: one reduction per entry against the per-term chain


def _chain_product(a, b):
    """a @ b by the per-term chain: each product reduced and each partial
    sum promoted, the loop ExactMatrix.__matmul__ ran for every entry
    before it reduced once per symbol-free dot product."""
    n, m, p = a.rows, a.cols, b.cols
    ae, be = a.entries, b.entries
    out = [None] * (n * p)
    for i in range(n):
        arow = i * m
        acc = [None] * p
        for t in range(m):
            x = ae[arow + t]
            if not x.terms:
                continue
            boff = t * p
            for j in range(p):
                y = be[boff + j]
                if not y.terms:
                    continue
                prod = x * y
                cur = acc[j]
                acc[j] = prod if cur is None else cur + prod
        base = i * p
        for j in range(p):
            out[base + j] = acc[j] if acc[j] is not None else \
                PhasedScalar.zero(1)
    return ExactMatrix(n, p, out, a.scale * b.scale)


def _random_scalar(rng, n, symbol=False):
    """A scalar of a random order dividing n with up to three terms over
    denominators 1, 2 and 3, zero about a third of the time, times a
    power of t when symbol is set."""
    if rng.random() < 0.3:
        return PhasedScalar.zero(rng.choice((1, n)))
    m = rng.choice([d for d in range(1, n + 1) if n % d == 0])
    coeffs = {rng.randrange(m): Fraction(rng.choice((-3, -1, 1, 2)),
                                         rng.choice((1, 1, 2, 3)))
              for _ in range(rng.randint(1, 3))}
    s = PhasedScalar.of(Cyclotomic(m, coeffs))
    return s * PhasedScalar.symbol("t", rng.choice((-1, 1, 2))) if symbol \
        else s


def _random_exact(rng, rows, cols, n, symbol=False):
    scale = Fraction(rng.choice((1, 2, 3)), rng.choice((1, 5)))
    return ExactMatrix(rows, cols, [_random_scalar(rng, n, symbol)
                                    for _ in range(rows * cols)], scale)


def _same_product(a, b):
    got, want = a @ b, _chain_product(a, b)
    assert got == want
    # the JSON carries every entry's order, a cancelled zero's included
    assert matrix_to_json(got) == matrix_to_json(want)
    return got


@pytest.mark.parametrize("n", [1, 3, 4, 5, 11, 12, 15, 165])
def test_dense_dot_matches_the_chain(n):
    rng = random.Random(n)
    for rows, inner, cols in ((3, 3, 3), (2, 4, 3), (4, 2, 1), (1, 5, 2)):
        for _ in range(2 if n == 165 else 6):
            _same_product(_random_exact(rng, rows, inner, n),
                          _random_exact(rng, inner, cols, n))
    # mixed symbols: entries with t take the chain, the others the dot
    _same_product(_random_exact(rng, 3, 4, n, symbol=True),
                  _random_exact(rng, 4, 2, n))


def test_dense_dot_keeps_the_order_of_a_cancelled_sum():
    # zeta_3 zeta_4 - zeta_3 zeta_4 cancels at order 12; a single product
    # of two order-1 entries stays at order 1
    z3, z4 = PhasedScalar.zeta(3), PhasedScalar.zeta(4)
    half = PhasedScalar.of(Fraction(1, 2))
    a = ExactMatrix(1, 2, [z3, z3])
    b = ExactMatrix(2, 2, [z4, half, -z4, PhasedScalar.zero(1)])
    got = _same_product(a, b)
    assert got.entries[0].is_zero() and got.entries[0].order == 12
    assert matrix_to_json(got)["entries"][0]["order"] == 12
    assert got.entries[1] == z3 * half and got.entries[1].order == 3
    # denominators 2 and 3 over one common denominator 6
    c = ExactMatrix(1, 2, [half, PhasedScalar.of(Fraction(1, 3))])
    d = ExactMatrix(2, 1, [z4, z4])
    assert _same_product(c, d).entries[0] == z4 * Fraction(5, 6)


def test_dense_dot_sends_symbols_through_the_chain(monkeypatch):
    calls = []
    form = exactmat._int_form
    monkeypatch.setattr(exactmat, "_int_form",
                        lambda c, n: calls.append(n) or form(c, n))
    rng = random.Random(7)
    a = _random_exact(rng, 3, 4, 12, symbol=True)
    _same_product(a, _random_exact(rng, 4, 3, 12))
    assert calls == []
    _same_product(_random_exact(rng, 3, 4, 12), _random_exact(rng, 4, 3, 12))
    assert calls


# ---------------------------------------------------------------------------
# tensor products: one integer-form product per distinct tuple of entries
# against the per-entry chain


def _chain_tensor(a, *others):
    """a (x) others[0] (x) ... by the per-entry chain, folded left: the
    loop ExactMatrix.tensor ran for two factors before it multiplied each
    distinct tuple of entries once in integer form."""
    for b in others:
        ra, ca, rb, cb = a.rows, a.cols, b.rows, b.cols
        ents = [None] * (ra * rb * ca * cb)
        cols = ca * cb
        for i1 in range(ra):
            for j1 in range(ca):
                x = a.entries[i1 * ca + j1]
                for i2 in range(rb):
                    base = (i1 * rb + i2) * cols + j1 * cb
                    for j2 in range(cb):
                        y = b.entries[i2 * cb + j2]
                        ents[base + j2] = x * y if (x.terms and y.terms) \
                            else PhasedScalar.zero(1)
        a = ExactMatrix(ra * rb, ca * cb, ents, a.scale * b.scale)
    return a


def _same_tensor(a, *others):
    got, want = a.tensor(*others), _chain_tensor(a, *others)
    assert got == want and got.scale == want.scale
    # the JSON carries every entry's order
    assert matrix_to_json(got) == matrix_to_json(want)
    # the cells of one tuple of factor values hold one object, and every
    # zero is the one order-1 zero
    mats, shared = (a, *others), {}
    for idx, e in enumerate(got.entries):
        r, c = divmod(idx, got.cols)
        values = []
        for m in reversed(mats):
            (r, i), (c, j) = divmod(r, m.rows), divmod(c, m.cols)
            values.append(m.entry(i, j))
        if not all(v.terms for v in values):
            assert not e.terms and e.order == 1
            values = ()
        assert shared.setdefault(tuple(v.key() for v in values), e) is e
    return got


@pytest.mark.parametrize("n", [1, 3, 4, 5, 11, 15, 165])
def test_tensor_matches_the_chain(n):
    rng = random.Random(100 + n)
    shapes = ((2, 2), (1, 3), (3, 2), (2, 1))
    for k in (1, 2, 3):
        for _ in range(2 if n == 165 else 4):
            a, *others = (_random_exact(rng, *rng.choice(shapes), n)
                          for _ in range(k + 1))
            _same_tensor(a, *others)
    a, b = _random_exact(rng, 2, 3, n), _random_exact(rng, 3, 1, n)
    _same_tensor(a, a)                  # one matrix passed twice
    _same_tensor(a, b, a)
    # a factor with symbol t takes the chain wherever its entries enter
    _same_tensor(_random_exact(rng, 2, 2, n, symbol=True), b)
    _same_tensor(a, _random_exact(rng, 2, 1, n, symbol=True), b)


def test_tensor_mixes_conductors_per_tuple():
    # each tuple is formed at the lcm of its own orders: 1, 3, 4, 12, 15 ...
    rng = random.Random(11)
    for _ in range(6):
        mats = [_random_exact(rng, *rng.choice(((2, 2), (1, 2), (2, 1))),
                              rng.choice((1, 3, 4, 5, 11, 15)))
                for _ in range(rng.randint(2, 4))]
        _same_tensor(*mats)
    z3, z4 = PhasedScalar.zeta(3), PhasedScalar.zeta(4)
    one, half = PhasedScalar.one(1), PhasedScalar.of(Fraction(1, 2))
    got = _same_tensor(ExactMatrix(1, 2, [one, z3]),
                       ExactMatrix(2, 1, [half, z4]), ExactMatrix(1, 1, [z3]))
    assert [e.order for e in got.entries] == [3, 3, 12, 12]
    assert got.entries[0] == z3 * Fraction(1, 2)


def test_tensor_keeps_zeros_of_every_order_as_order_1():
    z5 = PhasedScalar.zeta(5)
    a = ExactMatrix(2, 2, [PhasedScalar.zero(5), z5, PhasedScalar.zero(1),
                           PhasedScalar.of(Fraction(2, 3))], Fraction(3, 5))
    got = _same_tensor(a, ExactMatrix(1, 2, [z5, PhasedScalar.zero(7)]))
    assert got.nonzero_count() == 2
    assert all(e.order == 1 for e in got.entries if not e.terms)


def test_tensor_sends_symbols_through_the_chain(monkeypatch):
    calls = []
    form = exactmat._int_form
    monkeypatch.setattr(exactmat, "_int_form",
                        lambda c, n: calls.append(n) or form(c, n))
    rng = random.Random(8)
    _same_tensor(_random_exact(rng, 2, 2, 12, symbol=True),
                 _random_exact(rng, 2, 3, 12))
    assert calls == []
    _same_tensor(_random_exact(rng, 2, 2, 12), _random_exact(rng, 2, 3, 12))
    assert calls

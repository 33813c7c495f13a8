import random
from fractions import Fraction
from math import isqrt

import numpy as np
import pytest

from uebkit import fastcyc
from uebkit.cyclo import Cyclotomic, PhasedScalar
from uebkit.exactmat import ExactMatrix
from uebkit.fastcyc import CycMatrix, from_exact, to_exact


def random_cyc(rng, d, p, span=2):
    a = np.zeros((d, d, p), dtype=np.int64)
    for i in range(d):
        for j in range(d):
            for e in rng.sample(range(p), rng.randrange(3)):
                a[i, j, e] = rng.randint(-span, span)
    return CycMatrix(p, a, Fraction(rng.choice([1, 1, 2, 3]),
                                    rng.choice([1, 1, 5])))


def test_round_trip_and_identity():
    for p in (3, 5, 11):
        m = CycMatrix.identity(4, p)
        back = from_exact(to_exact(m), p)
        assert back == m
        assert to_exact(m) == ExactMatrix.identity(4)


def test_vanishing_full_orbit():
    p = 5
    a = np.zeros((2, 2, p), dtype=np.int64)
    a[0, 1, :] = 1                       # 1 + z + z^2 + z^3 + z^4 = 0
    m = CycMatrix(p, a)
    assert m == CycMatrix(p, np.zeros((2, 2, p), dtype=np.int64))
    assert to_exact(m).entry(0, 1).is_zero()


def test_matmul_dagger_trace_cross_validation():
    rng = random.Random(11)
    grid = [(p, d) for p in (2, 7, 13) for d in (1, 2, 4)]
    for p, d in [(5, 5), (11, 11), (3, 3)] + grid:
        for _ in range(6):
            x = random_cyc(rng, d, p)
            y = random_cyc(rng, d, p)
            ex, ey = to_exact(x), to_exact(y)
            assert to_exact(x @ y) == ex @ ey
            assert to_exact(x.dagger()) == ex.dagger()
            assert PhasedScalar.of(x.trace()) == ex.trace()
            assert PhasedScalar.of((x @ y).trace()) == (ex @ ey).trace()


def test_scaled_equality():
    rng = random.Random(3)
    x = random_cyc(rng, 4, 5)
    doubled = CycMatrix(x.p, x.a * 3, x.scale / 3)
    assert x == doubled
    bumped = x.a.copy()
    bumped[0, 0, 0] += 1
    assert not (x == CycMatrix(x.p, bumped, x.scale))


def test_equal_up_to_phase():
    rng = random.Random(5)
    p = 11
    x = random_cyc(rng, 3, p)
    shifted = np.roll(x.a, 4, axis=2)
    y = CycMatrix(p, shifted * 2, x.scale / 2)
    c = y.equal_up_to_phase(x)
    assert c is not None
    assert c == Cyclotomic.zeta(p, 4)
    ex, ey = to_exact(x), to_exact(y)
    ce = ey.equal_up_to_phase(ex)
    assert ce is not None and PhasedScalar.of(c) == ce
    neg = CycMatrix(p, -shifted, x.scale)
    cn = neg.equal_up_to_phase(x)
    assert cn == -Cyclotomic.zeta(p, 4)
    assert to_exact(neg).equal_up_to_phase(ex) == PhasedScalar.of(cn)
    scaled = CycMatrix(p, shifted * 2, x.scale / 6)   # modulus 1/3: no phase
    assert scaled.equal_up_to_phase(x) is None
    assert to_exact(scaled).equal_up_to_phase(ex) is None
    assert x.equal_up_to_phase(CycMatrix(p, np.zeros_like(x.a))) is None


def test_zero_phase_cases():
    p = 5
    z = CycMatrix(p, np.zeros((2, 2, p), dtype=np.int64))
    assert z.equal_up_to_phase(z) == Cyclotomic.one(p)
    nz = CycMatrix.identity(2, p)
    assert z.equal_up_to_phase(nz) is None
    assert nz.equal_up_to_phase(z) is None


def test_overflow_fallback_matches_exact():
    p = 5
    big = 2 ** 40
    a = np.zeros((2, 2, p), dtype=np.int64)
    a[0, 0, 1] = big
    a[1, 0, 2] = -big
    a[0, 1, 0] = 7
    a[1, 1, 3] = big // 3
    x = CycMatrix(p, a)
    prod = x @ x
    assert to_exact(prod) == to_exact(x) @ to_exact(x)


@pytest.mark.parametrize("d, p", [(2, 3), (4, 13)])
def test_int64_route_up_to_the_guard(monkeypatch, d, p):
    # m*m*d*p just under _I64_MAX // 4 = 2**61 - 1 keeps the int64 matmul;
    # (m + 1)**2*d*p is just over it and takes the exact fallback.
    guard = fastcyc._I64_MAX // 4
    m = isqrt(guard // (d * p))
    assert m * m * d * p <= guard < (m + 1) * (m + 1) * d * p
    calls = []

    def counting(cm):
        calls.append(cm)
        return to_exact(cm)

    monkeypatch.setattr(fastcyc, "to_exact", counting)
    rng = np.random.default_rng(d * p)
    for top, fallback_calls in ((m, 0), (m + 1, 2)):
        signs = rng.choice([-1, 1], size=(2, d, d, p))
        x = CycMatrix(p, signs[0] * top)
        y = CycMatrix(p, signs[1] * top)
        calls.clear()
        prod = x @ y
        assert len(calls) == fallback_calls
        assert to_exact(prod) == to_exact(x) @ to_exact(y)


def test_from_exact_rejects_bad_inputs():
    t = PhasedScalar.symbol("t")
    sym = ExactMatrix.from_rows([[t, 0], [0, t]])
    with pytest.raises(ValueError, match="symbolic"):
        from_exact(sym, 5)
    z6 = ExactMatrix.diagonal([PhasedScalar.zeta(6), PhasedScalar.one(1)])
    with pytest.raises(ValueError, match="conductor"):
        from_exact(z6, 5)


def test_from_exact_folds_denominators():
    half = ExactMatrix.diagonal([PhasedScalar.of(Fraction(1, 2)),
                                 PhasedScalar.of(Fraction(3, 4))])
    m = from_exact(half, 3)
    assert m.scale == Fraction(1, 4)
    assert to_exact(m) == half

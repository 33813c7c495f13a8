import ast
import functools
import random
from fractions import Fraction
from math import gcd, lcm
from pathlib import Path

import pytest
import sympy

from uebkit.cyclo import (
    Cyclotomic,
    PhasedScalar,
    cyclotomic_polynomial,
    roots_of_unity,
    scalar_from_json,
    scalar_to_json,
)
from uebkit.exactmat import ExactMatrix


def sympy_cyclotomic(n):
    poly = sympy.cyclotomic_poly(n, sympy.Symbol("x"))
    coeffs = sympy.Poly(poly, sympy.Symbol("x")).all_coeffs()
    return tuple(int(c) for c in reversed(coeffs))


def test_cyclotomic_polynomial_matches_sympy():
    # independent oracle; 105 is the first order with a coefficient of -2
    for n in list(range(1, 81)) + [105, 165, 330, 660]:
        assert cyclotomic_polynomial(n) == sympy_cyclotomic(n)


def test_zeta_basic_identities():
    for n in [1, 2, 3, 4, 5, 6, 8, 9, 12, 15, 165]:
        z = Cyclotomic.zeta(n)
        assert (z ** n).is_one()
        if n > 1:
            total = Cyclotomic.zero(n)
            for k in range(n):
                total = total + z ** k
            assert total.is_zero()


def test_canonical_forms():
    z6 = Cyclotomic.zeta(6)
    assert z6 ** 3 == -1
    assert (z6 - z6).is_zero()
    z4 = Cyclotomic.zeta(4)
    assert z4 * z4 == -1
    z3 = Cyclotomic.zeta(3)
    assert (z3 * z3 + z3 + 1).is_zero()
    # zeta_5^7 folds to zeta_5^2
    assert Cyclotomic.zeta(5) ** 7 == Cyclotomic.zeta(5, 2)


def random_cyclotomic(rng, order):
    coeffs = {}
    for _ in range(rng.randrange(4)):
        coeffs[rng.randrange(order)] = Fraction(rng.randrange(-4, 5),
                                                rng.randrange(1, 5))
    return Cyclotomic(order, coeffs)


def test_promotion_consistency():
    rng = random.Random(11)
    for _ in range(200):
        na, nb = rng.choice([(2, 3), (4, 6), (3, 5), (6, 8), (5, 11)])
        a = random_cyclotomic(rng, na)
        b = random_cyclotomic(rng, nb)
        n = na * nb // __import__("math").gcd(na, nb)
        assert a + b == a.promote(n) + b.promote(n)
        assert a * b == a.promote(n) * b.promote(n)
        assert (a * b).order == n


def test_conj_is_ring_map():
    rng = random.Random(7)
    for _ in range(100):
        n = rng.choice([3, 4, 5, 8, 12])
        a, b = random_cyclotomic(rng, n), random_cyclotomic(rng, n)
        assert (a * b).conj() == a.conj() * b.conj()
        assert (a + b).conj() == a.conj() + b.conj()
        assert a.conj().conj() == a


def test_inverse_random():
    rng = random.Random(3)
    done = 0
    while done < 60:
        n = rng.choice([1, 2, 3, 4, 5, 6, 8, 12])
        a = random_cyclotomic(rng, n)
        if a.is_zero():
            continue
        assert (a * a.inverse()).is_one()
        done += 1
    with pytest.raises(ZeroDivisionError):
        Cyclotomic.zero(5).inverse()


def test_root_of_unity_order():
    assert Cyclotomic.zeta(6).root_of_unity_order() == 6
    assert (-Cyclotomic.zeta(5) ** 3).root_of_unity_order() == 10
    assert Cyclotomic.one(7).root_of_unity_order() == 1
    assert Cyclotomic.from_rational(-1, 4).root_of_unity_order() == 2
    assert Cyclotomic.from_rational(2).root_of_unity_order() is None
    assert (Cyclotomic.one(4) + Cyclotomic.zeta(4)).root_of_unity_order() is None
    assert (Cyclotomic.zeta(8) ** 2).root_of_unity_order() == 4
    assert Cyclotomic.zero(3).root_of_unity_order() is None


def _order_by_powers(z):
    """The order by powering: z^m == 1 for m = lcm(2, order), then the
    least divisor of m that also gives 1."""
    if z.is_zero():
        return None
    m = lcm(2, z.order)
    if not (z ** m).is_one():
        return None
    return next(d for d in range(1, m + 1)
                if m % d == 0 and (z ** d).is_one())


@pytest.mark.parametrize("n", list(range(1, 37)) + [165, 330])
def test_root_of_unity_order_table_matches_powers(n):
    zeta = Cyclotomic.zeta(n)
    cases = [Cyclotomic.from_rational(2, n), Cyclotomic.zero(n),
             Cyclotomic.one(n) + zeta, zeta + zeta * zeta]
    for k in range(n):
        cases += [Cyclotomic.zeta(n, k), -Cyclotomic.zeta(n, k)]
    for c in range(1, n):  # roots of lower conductor, promoted
        if n % c == 0:
            cases += [Cyclotomic.zeta(c, k).promote(n) for k in range(c)]
            cases += [(-Cyclotomic.zeta(c, k)).promote(n) for k in range(c)]
    want = {}  # the powers run once per value: promoted roots repeat them
    found = set()
    for z in cases:
        assert z.order == n
        if z.key() not in want:
            want[z.key()] = _order_by_powers(z)
        order = z.root_of_unity_order()
        assert order == want[z.key()], z
        found.add(order)
    m = lcm(2, n)
    assert found - {None} == {d for d in range(1, m + 1) if m % d == 0}


@functools.cache
def _root_orders(n):
    """{key(): order} of every root of unity in Q(zeta_n), by powers of
    zeta_m, m = lcm(2, n): the table cyclo built by repeated squaring."""
    m = lcm(2, n)
    z = Cyclotomic.zeta(n) if m == n else -Cyclotomic.zeta(n, (n + 1) // 2)
    return {(z ** k).key(): m // gcd(k, m) for k in range(m)}


@functools.cache
def _zeta_powers(r):
    return [Cyclotomic.zeta(r) ** j for j in range(r)]


def _search_unit_sqrt(v):
    """unit_sqrt by the search it ran before the table: the least j with
    c == zeta_r^j for the order r of c, then zeta_2r^j."""
    ((key, c),) = v.terms.items()
    r = _root_orders(c.order)[c.key()]
    j = next(j for j in range(r) if c == _zeta_powers(r)[j])
    half = PhasedScalar.of(Cyclotomic.zeta(2 * r) ** j, v.order)
    return PhasedScalar(half.order, {tuple((s, e // 2) for s, e in key):
                                     half.terms[()]})


@pytest.mark.parametrize("n", list(range(1, 37)) + [165, 330])
def test_root_table_matches_the_powers_and_the_search(n):
    zetas, log = roots_of_unity(n)
    orders = _root_orders(n)
    assert type(zetas) is tuple and roots_of_unity(n)[1] is log
    with pytest.raises(TypeError):
        log[None] = 0
    # zetas[k] is the k-th power, and log its inverse
    assert [z.terms[()].key() for z in zetas] == list(orders) == list(log)
    assert list(log.values()) == list(range(lcm(2, n)))
    for z in zetas:
        assert z.order == n and z.is_symbol_free()
        c = z.terms[()]
        assert c.root_of_unity_order() == orders[c.key()]
        got, want = z.unit_sqrt(), _search_unit_sqrt(z)
        assert got == want and got.order == want.order


def test_rational_value():
    assert Cyclotomic.zeta(4, 2).rational_value() == Fraction(-1)
    assert Cyclotomic.zeta(5).rational_value() is None
    assert Cyclotomic.zero(5).rational_value() == 0


def test_phased_scalar_symbol_axioms():
    t = PhasedScalar.symbol("t")
    assert (t * t.conj()).is_one()
    assert t.is_unit_modulus()
    assert t.root_of_unity_order() is None
    assert (t ** 3).root_of_unity_order() is None
    assert (t ** 3 * t ** -3).is_one()
    # any identifier is a symbol, with no declaration; other names are refused
    assert PhasedScalar.symbol("never_declared").is_unit_modulus()
    for bad in ["", "1t", "a b"]:
        with pytest.raises(ValueError):
            PhasedScalar.symbol(bad)


def test_phased_scalar_sums():
    t = PhasedScalar.symbol("t")
    one = PhasedScalar.one()
    assert (one + t) + (-one) == t
    assert (one + t) * (one - t) == one - t * t
    assert not (one + t).is_unit_modulus()
    with pytest.raises(ValueError):
        (one + t).inverse()


def test_phased_scalar_substitute():
    t = PhasedScalar.symbol("t")
    i = PhasedScalar.zeta(4)
    s = (t ** 2 + 1).substitute({"t": i})
    assert s.is_zero()
    s2 = (t * PhasedScalar.zeta(3)).substitute({"t": i})
    assert s2 == PhasedScalar.zeta(4) * PhasedScalar.zeta(3)
    with pytest.raises(ValueError):
        t.substitute({"t": PhasedScalar.of(2)})


def test_unit_sqrt():
    cases = [
        PhasedScalar.zeta(3),
        PhasedScalar.of(-1),
        PhasedScalar.zeta(8, 3),
        PhasedScalar.symbol("t", 2) * PhasedScalar.zeta(3, 2),
    ]
    for v in cases:
        s = v.unit_sqrt()
        assert s * s == v
    with pytest.raises(ValueError):
        PhasedScalar.symbol("t").unit_sqrt()
    with pytest.raises(ValueError):
        PhasedScalar.of(2).unit_sqrt()


def test_unit_sqrt_refuses_a_root_that_does_not_square_back(monkeypatch):
    # a raised check, not an assert, so python -O keeps it: the root is
    # built through PhasedScalar.of, tilted here by i so that s s = -v
    v = PhasedScalar.zeta(3)
    of, i = PhasedScalar.of, PhasedScalar.zeta(4)
    monkeypatch.setattr(PhasedScalar, "of", staticmethod(
        lambda value, order=1: of(value, order) * i))
    with pytest.raises(ArithmeticError, match=r"\^2 !="):
        v.unit_sqrt()


def test_scalar_json_round_trip():
    t = PhasedScalar.symbol("t")
    cases = [
        PhasedScalar.zero(6),
        PhasedScalar.of(Fraction(-3, 7), order=4),
        PhasedScalar.zeta(12, 5) * PhasedScalar.of(Fraction(1, 2)),
        t ** -2 * PhasedScalar.zeta(4),
        PhasedScalar.one() + t + t ** 2,
    ]
    for s in cases:
        obj = scalar_to_json(s)
        back = scalar_from_json(obj)
        assert back == s
    # single-term scalars use the flat encoding
    flat = scalar_to_json(t ** 2)
    assert set(flat) == {"order", "coeffs", "symbols"}
    assert flat["symbols"] == {"t": 2}
    multi = scalar_to_json(PhasedScalar.one() + t)
    assert "terms" in multi


def test_scalar_json_refuses_a_key_with_a_leading_zero():
    # scalar_to_json writes str(k); int() reads "0" and "00" alike, so the
    # pair {"0": "1", "00": "1"} decoded to 1, not 2
    for coeffs in ({"0": "1", "00": "1"}, {"01": "1"}, {"00": "1"}):
        with pytest.raises(ValueError, match="leading zero"):
            scalar_from_json({"order": 4, "coeffs": coeffs, "symbols": {}})
    assert scalar_from_json({"order": 4, "coeffs": {"0": "1", "10": "1"},
                             "symbols": {}}) == PhasedScalar.of(
        Cyclotomic.zeta(4, 10) + 1)


def _assert_normal_form(s):
    # the form PhasedScalar's constructor stores without checking
    assert isinstance(s, PhasedScalar)
    for key, c in s.terms.items():
        assert type(key) is tuple and key == tuple(sorted(key))
        assert len({name for name, _ in key}) == len(key)
        assert all(type(name) is str and type(e) is int and e
                   for name, e in key)
        assert isinstance(c, Cyclotomic) and not c.is_zero()
        assert c.order == s.order
        assert Cyclotomic(c.order, dict(c.coeffs)).key() == c.key()


def _random_phased(rng, order):
    s = PhasedScalar.zero(order)
    for _ in range(rng.randrange(4)):
        term = PhasedScalar.of(random_cyclotomic(rng, order))
        for name in rng.sample("tuv", rng.randrange(3)):
            term = term * PhasedScalar.symbol(name, rng.choice([-2, -1, 1, 2]))
        s = s + term
    return s


def _random_unit(rng, order):
    k = rng.randrange(order)
    return PhasedScalar.zeta(order, k) * PhasedScalar.symbol(
        rng.choice("tuv"), rng.choice([-3, -1, 2]))


def test_every_scalar_operation_returns_the_normal_form():
    rng = random.Random(2023)
    orders = [1, 2, 3, 4, 5, 12, 15]
    for _ in range(60):
        na, nb = rng.choice(orders), rng.choice(orders)
        a, b = _random_phased(rng, na), _random_phased(rng, nb)
        unit = _random_unit(rng, rng.choice(orders))
        mono = unit * PhasedScalar.of(Fraction(rng.randrange(1, 5), 3))
        results = [a, b, a + b, a - b, b - a, a * b, -a, a ** 0, a ** 2,
                   b ** 3, a.conj(), a.promote(na * 7), mono.inverse(),
                   mono ** -2, unit.conj(), (unit * unit).unit_sqrt(),
                   PhasedScalar.of(random_cyclotomic(rng, na), nb),
                   PhasedScalar.of(a, nb),
                   PhasedScalar.of(rng.randrange(-2, 3), na),
                   a.substitute({"t": unit, "v": PhasedScalar.zeta(8, 3)}),
                   scalar_from_json(scalar_to_json(a)),
                   scalar_from_json(scalar_to_json(a * b))]
        if not b.is_zero():
            # sides at different orders: the phase lives at their lcm
            other = ExactMatrix.from_rows([[b.promote(nb * 11), a]])
            mine = ExactMatrix.from_rows([[unit * b, unit * a]])
            phase = mine.equal_up_to_phase(other)
            assert phase == unit
            results.append(phase)
        for r in results:
            _assert_normal_form(r)


def _sympy_poly(coeffs):
    x = sympy.Symbol("x")
    return sum(sympy.Rational(c.numerator, c.denominator) * x ** k
               for k, c in coeffs.items())


def _sympy_residue(poly, n):
    """poly reduced mod Phi_n by sympy over QQ, as {k: Fraction}."""
    x = sympy.Symbol("x")
    r = sympy.Poly(sympy.rem(sympy.expand(poly), sympy.cyclotomic_poly(n, x), x),
                   x, domain="QQ")
    return {k: Fraction(int(c.p), int(c.q)) for (k,), c in r.terms() if c != 0}


def test_integer_form_matches_sympy_remainders():
    # independent route: sympy's polynomial remainder mod Phi_n over QQ,
    # starting from raw exponents across the full range 0 <= k < n
    rng = random.Random(165)
    for n in [11, 12, 165]:
        for _ in range(12):
            ra = {rng.randrange(n): Fraction(rng.choice([-5, -3, -1, 1, 3, 7]),
                                             rng.choice([2, 3, 4, 6, 9]))
                  for _ in range(rng.randrange(1, 5))}
            rb = {rng.randrange(n): Fraction(rng.choice([-7, -2, 1, 5]),
                                             rng.choice([2, 5, 7, 10]))
                  for _ in range(rng.randrange(1, 5))}
            a, b = Cyclotomic(n, ra), Cyclotomic(n, rb)
            assert dict(a.coeffs) == _sympy_residue(_sympy_poly(ra), n)
            assert dict(b.coeffs) == _sympy_residue(_sympy_poly(rb), n)
            pa, pb = _sympy_poly(a.coeffs), _sympy_poly(b.coeffs)
            assert dict((a * b).coeffs) == _sympy_residue(pa * pb, n)
            assert dict((a + b).coeffs) == _sympy_residue(pa + pb, n)


def test_inverse_matches_sympy_invert():
    # independent route: sympy's inverse mod Phi_n over QQ, against the
    # norm route on multi-term elements that are neither rational nor
    # unit modulus, so neither fast path of inverse answers.  Exponents
    # stay below deg Phi_n and coefficients small: sympy takes about 0.5 s
    # on a 3-term residue at 165, and seconds on one dense in all 80
    x = sympy.Symbol("x")
    rng = random.Random(21)
    for n in [7, 11, 15, 33, 55, 165]:
        phi = sympy.cyclotomic_poly(n, x)
        deg = len(cyclotomic_polynomial(n)) - 1
        done = 0
        while done < 2:
            a = Cyclotomic(n, {rng.randrange(deg): Fraction(
                rng.choice([-3, -2, -1, 1, 2, 3]), rng.randrange(1, 3))
                for _ in range(rng.randrange(2, 4))})
            if len(a.coeffs) < 2 or (a * a.conj()).is_one():
                continue
            inv = a.inverse()
            assert (a * inv).is_one()
            assert inv.inverse() == a
            want = sympy.invert(_sympy_poly(a.coeffs), phi, x)
            assert dict(inv.coeffs) == _sympy_residue(want, n)
            done += 1


def test_integer_form_cancels_denominators():
    for n in [11, 12, 165]:
        half_z = Cyclotomic(n, {1: Fraction(1, 2)})
        two_zinv = Cyclotomic(n, {-1: 2})
        assert (half_z * two_zinv).is_one()
        assert (half_z * two_zinv).key() == Cyclotomic.one(n).key()
        # equal values built by different routes share one canonical form
        sixth = Cyclotomic(n, {1: Fraction(1, 6)})
        third = Cyclotomic(n, {1: Fraction(2, 6)})
        assert (sixth + third).key() == half_z.key()
        assert (half_z + half_z).key() == Cyclotomic.zeta(n).key()
        assert (half_z - half_z).key() == Cyclotomic.zero(n).key()
        assert (half_z * 2).key() == Cyclotomic.zeta(n).key()
        assert (half_z.conj() * 4).key() == two_zinv.key()
    with pytest.raises(TypeError):
        Cyclotomic.zeta(5).coeffs[0] = Fraction(1)


def _private_cyclo_names(path: Path) -> list[str]:
    """The names starting with _ that path takes from uebkit.cyclo, by a
    from-import or as an attribute of the module imported under a name,
    then its reads of the integer form, ._num and ._den, on any object."""
    tree = ast.parse(path.read_text(), str(path))
    found, aliases = [], set()
    for node in ast.walk(tree):
        if isinstance(node, ast.ImportFrom):
            module = ("." * node.level) + (node.module or "")
            if module in (".cyclo", "uebkit.cyclo"):
                found += [a.name for a in node.names if a.name.startswith("_")]
            elif module in (".", "uebkit"):
                aliases |= {a.asname or a.name for a in node.names
                            if a.name == "cyclo"}
        elif isinstance(node, ast.Import):
            aliases |= {a.asname for a in node.names
                        if a.name == "uebkit.cyclo" and a.asname}
    attrs = [n for n in ast.walk(tree) if isinstance(n, ast.Attribute)]
    return found + [node.attr for node in attrs
                    if node.attr.startswith("_")
                    and isinstance(node.value, ast.Name)
                    and node.value.id in aliases] + \
        [node.attr for node in attrs if node.attr in ("_num", "_den")]


def test_only_exactmat_reaches_into_cyclo():
    # only cyclo knows its integer form (_num, _den, _int_form, _reduce):
    # exactmat takes the one kernel that forms every symbol-free sum of
    # products, _sumprod, and the other modules use the public API;
    # fastcyc reads the integer form until it leaves src (ROADMAP item 1)
    src = Path(__file__).resolve().parent.parent / "src" / "uebkit"
    found = {p.stem: _private_cyclo_names(p) for p in sorted(src.glob("*.py"))
             if p.stem not in ("cyclo", "fastcyc")}
    assert "counterexample165" in found
    assert {k: v for k, v in found.items() if v} == {"exactmat": ["_sumprod"]}


def test_private_cyclo_names_are_found(tmp_path):
    f = tmp_path / "m.py"
    f.write_text("from .cyclo import PhasedScalar, _reduce\n"
                 "from uebkit.cyclo import _int_form as form\n"
                 "from . import cyclo as c\n"
                 "import uebkit.cyclo as cy\n"
                 "x = c._cyc, cy._power, c.Cyclotomic, other._reduce\n")
    assert _private_cyclo_names(f) == ["_reduce", "_int_form", "_cyc",
                                       "_power"]


def test_integer_form_reads_are_found(tmp_path):
    f = tmp_path / "m.py"
    f.write_text("from .cyclo import _sumprod\n"
                 "x = c._num, f(c)._den, c.coeffs, c._cyc, c._number\n")
    assert _private_cyclo_names(f) == ["_sumprod", "_num", "_den"]

"""Exact arithmetic in cyclotomic fields, plus formal unit-modulus phases.

An element of Q(zeta_n) is stored as its canonical residue mod the n-th
cyclotomic polynomial, sum_k c_k zeta^k over 0 <= k < deg Phi_n, written
with integer numerators over one common denominator: a dict mapping each
exponent k with c_k != 0 to the int c_k * den, and a positive int den
that shares no factor with all of the numerators at once.  That pair is
unique for each field element (zero is the empty dict over 1), so zero
tests and equality are comparisons of a dict and an int, and every
product and sum runs on Python ints with no tolerance anywhere.  The
coeffs view gives the same residue with Fraction coefficients.

PhasedScalar extends the field by formal phase symbols.  A symbol is any
Python identifier and needs no declaration; it stands for a unit-modulus
complex number about which nothing else is assumed: conj(t) = t^-1, and
no power of t with nonzero exponent has finite multiplicative order.
Scalars are finite Laurent combinations of symbol monomials with
cyclotomic coefficients; the symbol-free case is the plain field element.

Ambient orders are fixed by the caller and promoted to the lcm when
mixed.  No automatic conductor minimization is attempted.  One private
kernel, _sumprod, forms every symbol-free sum of products at that lcm
with one reduction, so no other module reads the integer form.
"""

from __future__ import annotations

from fractions import Fraction
from functools import lru_cache, reduce
from math import gcd, lcm
from operator import mul
from types import MappingProxyType

_F0 = Fraction(0)


def _polydiv_exact(num: list[int], den: tuple[int, ...]) -> list[int]:
    # den must be monic; raises if the division leaves a remainder.
    num = list(num)
    dd = len(den) - 1
    out = [0] * (len(num) - dd)
    for k in range(len(out) - 1, -1, -1):
        c = num[k + dd]
        if c:
            out[k] = c
            for i, di in enumerate(den):
                num[k + i] -= c * di
    if any(num):
        raise ArithmeticError("inexact polynomial division")
    return out


@lru_cache(maxsize=None)
def cyclotomic_polynomial(n: int) -> tuple[int, ...]:
    """Integer coefficients of the n-th cyclotomic polynomial, low degree first."""
    if n < 1:
        raise ValueError("order must be a positive integer")
    if n == 1:
        return (-1, 1)
    num = [0] * (n + 1)
    num[0], num[n] = -1, 1
    for d in range(1, n):
        if n % d == 0:
            num = _polydiv_exact(num, cyclotomic_polynomial(d))
    return tuple(num)


@lru_cache(maxsize=None)
def _reduction_rows(n: int) -> tuple[int, tuple[tuple[tuple[int, int], ...], ...]]:
    """(deg Phi_n, rows): row k - deg lists the nonzero (i, c) with
    x^k = sum c x^i mod Phi_n, for deg <= k < n."""
    phi = cyclotomic_polynomial(n)
    deg = len(phi) - 1
    base = tuple(-c for c in phi[:deg])
    dense = [base]
    prev = base
    for _ in range(deg + 1, n):
        top = prev[-1]
        shifted = list((0,) + prev[:-1])
        if top:
            for i, b in enumerate(base):
                shifted[i] += top * b
        prev = tuple(shifted)
        dense.append(prev)
    rows = tuple(tuple((i, r) for i, r in enumerate(row) if r) for row in dense)
    return deg, rows


def _cyc(n: int, num: dict, den: int) -> "Cyclotomic":
    """Wrap numerators already in canonical residue form: exponents below
    deg Phi_n, no zero values, den >= 1.  The common gcd is divided out."""
    if den != 1:
        if not num:
            den = 1
        else:
            g = gcd(den, *num.values())
            if g != 1:
                num = {k: c // g for k, c in num.items()}
                den //= g
    z = object.__new__(Cyclotomic)
    z.order = n
    z._num = num
    z._den = den
    return z


def _reduce(n: int, raw: dict, den: int) -> "Cyclotomic":
    """The element (sum_k raw[k] x^k) / den of Q(zeta_n), for int values
    and any int exponents, in canonical form."""
    deg, rows = _reduction_rows(n)
    acc: dict[int, int] = {}
    get = acc.get
    for k, c in raw.items():
        if not c:
            continue
        k %= n
        if k < deg:
            acc[k] = get(k, 0) + c
        else:
            for i, r in rows[k - deg]:
                acc[i] = get(i, 0) + c * r
    return _cyc(n, {k: c for k, c in acc.items() if c}, den)


def _int_form(c: "Cyclotomic", n: int):
    """c in integer form at conductor n, a multiple of c.order: its
    (exponent lifted to n, numerator) pairs and its denominator."""
    s = n // c.order
    return [(k * s, v) for k, v in c._num.items()], c._den


def _common(a, b):
    """a and b at the lcm of their orders: Cyclotomic or PhasedScalar."""
    if a.order == b.order:
        return a, b
    n = lcm(a.order, b.order)
    return a.promote(n), b.promote(n)


def _power(x, e: int):
    """x ** e by repeated squaring; a negative e inverts x first."""
    if e < 0:
        x, e = x.inverse(), -e
    out = type(x).one(x.order)
    while e:
        if e & 1:
            out = out * x
        x = x * x
        e >>= 1
    return out


class Cyclotomic:
    """An element of Q(zeta_order), always in canonical residue form.

    The constructor takes any dict from int exponents to rationals (int,
    Fraction, or anything Fraction accepts) and reduces it.  Internally
    the residue is _num, a dict from exponent (0 <= k < deg Phi_order) to
    nonzero int numerator, over _den, a positive int with
    gcd(_den, all numerators) == 1; see the module docstring.  Instances
    are immutable values.
    """

    __slots__ = ("order", "_num", "_den")

    def __init__(self, order: int, coeffs: dict):
        if order < 1:
            raise ValueError("order must be a positive integer")
        qs = {k: Fraction(c) for k, c in coeffs.items()}
        den = 1
        for q in qs.values():
            den = lcm(den, q.denominator)
        raw = {k: q.numerator * (den // q.denominator) for k, q in qs.items()}
        z = _reduce(order, raw, den)
        self.order = order
        self._num = z._num
        self._den = z._den

    # -- constructors ---------------------------------------------------

    @staticmethod
    def zero(order: int = 1) -> "Cyclotomic":
        return _cyc(order, {}, 1)

    @staticmethod
    def one(order: int = 1) -> "Cyclotomic":
        return _cyc(order, {0: 1}, 1)

    @staticmethod
    def from_rational(q, order: int = 1) -> "Cyclotomic":
        q = Fraction(q)
        return _cyc(order, {0: q.numerator} if q else {}, q.denominator)

    @staticmethod
    def zeta(order: int, k: int = 1) -> "Cyclotomic":
        return _reduce(order, {k: 1}, 1)

    # -- plumbing --------------------------------------------------------

    @property
    def coeffs(self) -> MappingProxyType:
        """Read-only {exponent: nonzero Fraction} view of the residue."""
        den = self._den
        return MappingProxyType({k: Fraction(c, den)
                                 for k, c in self._num.items()})

    def promote(self, order: int) -> "Cyclotomic":
        if order == self.order:
            return self
        if order % self.order:
            raise ValueError(f"cannot promote order {self.order} into {order}")
        s = order // self.order
        return _reduce(order, {k * s: c for k, c in self._num.items()},
                       self._den)

    _common = _common

    def key(self):
        """Hashable canonical fingerprint.  Only comparable at equal order."""
        return (self.order, tuple(sorted(self._num.items())), self._den)

    # -- predicates -------------------------------------------------------

    def is_zero(self) -> bool:
        return not self._num

    def is_one(self) -> bool:
        return self._den == 1 and self._num == {0: 1}

    def rational_value(self):
        """The element as a Fraction if it lies in Q, else None."""
        num = self._num
        if not num:
            return _F0
        if len(num) == 1 and 0 in num:
            return Fraction(num[0], self._den)
        return None

    def root_of_unity_order(self):
        """Least m >= 1 with self^m == 1, or None: see roots_of_unity."""
        zetas, log = roots_of_unity(self.order)
        k = log.get(self.key())
        return None if k is None else len(zetas) // gcd(k, len(zetas))

    # -- arithmetic --------------------------------------------------------

    def __add__(self, other):
        if not isinstance(other, Cyclotomic):
            other = Cyclotomic.from_rational(other)
        a, b = self._common(other)
        if not b._num:
            return a
        if not a._num:
            return b
        da, db = a._den, b._den
        if da == db:
            fa = fb = 1
        else:
            g = gcd(da, db)
            fa, fb = db // g, da // g
        out = {k: c * fa for k, c in a._num.items()} if fa != 1 else dict(a._num)
        for k, c in b._num.items():
            s = out.get(k, 0) + c * fb
            if s:
                out[k] = s
            else:
                del out[k]
        return _cyc(a.order, out, da * fa)

    def __neg__(self):
        return _cyc(self.order, {k: -c for k, c in self._num.items()}, self._den)

    def __sub__(self, other):  # __add__ coerces -other
        return self + (-other)

    def __mul__(self, other):
        # test the common type first: isinstance against Fraction goes
        # through the numbers ABC machinery and is slow
        if not isinstance(other, Cyclotomic):
            if not isinstance(other, (int, Fraction)):
                return NotImplemented
            q = Fraction(other)
            if not q:
                return Cyclotomic.zero(self.order)
            p = q.numerator
            return _cyc(self.order, {k: c * p for k, c in self._num.items()},
                        self._den * q.denominator)
        a, b = (self, other) if self.order == other.order else self._common(other)
        an, bn = a._num, b._num
        if len(an) == 1 and len(bn) == 1:
            # q * zeta^k times r * zeta^l: add the exponents; only a sum
            # at or past deg Phi_n needs the reduction rows
            ((ka, ca),) = an.items()
            ((kb, cb),) = bn.items()
            n = a.order
            k = (ka + kb) % n
            if k < _reduction_rows(n)[0]:
                return _cyc(n, {k: ca * cb}, a._den * b._den)
        raw: dict[int, int] = {}
        get = raw.get
        for ka, ca in an.items():
            for kb, cb in bn.items():
                k = ka + kb
                raw[k] = get(k, 0) + ca * cb
        return _reduce(a.order, raw, a._den * b._den)

    __rmul__ = __mul__

    __pow__ = _power

    def conj(self) -> "Cyclotomic":
        n = self.order
        return _reduce(n, {(n - k) % n: c for k, c in self._num.items()},
                       self._den)

    def inverse(self) -> "Cyclotomic":
        """self^-1, through the field norm outside two fast paths.

        Gal(Q(zeta_n)/Q) = {sigma_k : gcd(k, n) = 1}, where sigma_k sends
        zeta to zeta^k, so sigma_k(x) is one reduction of the exponents
        times k.  The product of all conjugates sigma_k(x) is the norm
        N(x); each sigma_j permutes the conjugates, so every sigma_j fixes
        N(x), and the fixed field of the whole Galois group is Q.  N(x) is
        nonzero for x != 0, because each sigma_k is a field automorphism
        and sends a nonzero x to a nonzero conjugate.  With acc the
        product over k != 1, x acc = N(x), so x^-1 = acc / N(x).
        """
        if not self._num:
            raise ZeroDivisionError("inverse of zero")
        q = self.rational_value()
        if q is not None:
            return Cyclotomic.from_rational(1 / q, self.order)
        c = self.conj()
        if (self * c).is_one():
            return c
        n, num, den = self.order, self._num, self._den
        acc = Cyclotomic.one(n)
        for k in range(2, n):
            if gcd(k, n) == 1:
                acc = acc * _reduce(n, {e * k: v for e, v in num.items()}, den)
        norm = (self * acc).rational_value()
        if not norm:
            raise ArithmeticError(f"x times its other conjugates is {self * acc}, "
                                  "not a nonzero rational")
        return acc * (1 / norm)

    def __eq__(self, other):
        if not isinstance(other, Cyclotomic):
            if not isinstance(other, (int, Fraction)):
                return NotImplemented
            other = Cyclotomic.from_rational(other)
        a, b = self._common(other)
        return a._den == b._den and a._num == b._num

    __hash__ = None

    def __repr__(self):
        if not self._num:
            return f"Cyc({self.order}; 0)"
        parts = " + ".join(f"{c}*z^{k}" if k else str(c)
                           for k, c in sorted(self.coeffs.items()))
        return f"Cyc({self.order}; {parts})"


# ---------------------------------------------------------------------------
# formal phase symbols


def _merge_keys(ka, kb):
    if not ka:
        return kb
    if not kb:
        return ka
    d = dict(ka)
    for s, e in kb:
        e2 = d.get(s, 0) + e
        if e2:
            d[s] = e2
        else:
            del d[s]
    return tuple(sorted(d.items()))


class PhasedScalar:
    """Finite sum of phase-symbol monomials with cyclotomic coefficients.

    terms maps a sorted tuple of (symbol, exponent) pairs, exponents
    nonzero, to a nonzero Cyclotomic coefficient.  The empty key is the
    symbol-free part.  All coefficients have the ambient order.  The
    constructor stores terms as given and trusts them to be in that form:
    build scalars with of, zero, one, zeta, symbol and the arithmetic.
    """

    __slots__ = ("order", "terms")

    def __init__(self, order: int, terms: dict):
        self.order = order
        self.terms = terms

    # -- constructors ---------------------------------------------------

    @staticmethod
    def zero(order: int = 1) -> "PhasedScalar":
        return PhasedScalar(order, {})

    @staticmethod
    def one(order: int = 1) -> "PhasedScalar":
        return PhasedScalar(order, {(): Cyclotomic.one(order)})

    @staticmethod
    def of(value, order: int = 1) -> "PhasedScalar":
        """Coerce an int, Fraction, Cyclotomic or PhasedScalar."""
        if isinstance(value, PhasedScalar):
            return value if order == 1 else value.promote(lcm(order, value.order))
        if isinstance(value, Cyclotomic):
            n = lcm(order, value.order)
            v = value.promote(n)
            if v.is_zero():
                return PhasedScalar.zero(n)
            return PhasedScalar(n, {(): v})
        q = Fraction(value)
        if not q:
            return PhasedScalar.zero(order)
        return PhasedScalar(order, {(): Cyclotomic.from_rational(q, order)})

    @staticmethod
    def zeta(order: int, k: int = 1) -> "PhasedScalar":
        return PhasedScalar.of(Cyclotomic.zeta(order, k))

    @staticmethod
    def symbol(name: str, exponent: int = 1) -> "PhasedScalar":
        if not name.isidentifier():
            raise ValueError(f"bad symbol name {name!r}")
        if exponent == 0:
            return PhasedScalar.one()
        return PhasedScalar(1, {((name, exponent),): Cyclotomic.one(1)})

    # -- plumbing ---------------------------------------------------------

    def promote(self, order: int) -> "PhasedScalar":
        if order == self.order:
            return self
        return PhasedScalar(order,
                            {k: c.promote(order) for k, c in self.terms.items()})

    _common = _common

    def key(self):
        return (self.order,
                tuple(sorted((k, c.key()) for k, c in self.terms.items())))

    # -- predicates ---------------------------------------------------------

    def is_zero(self) -> bool:
        return not self.terms

    def is_one(self) -> bool:
        return len(self.terms) == 1 and () in self.terms and self.terms[()].is_one()

    def is_symbol_free(self) -> bool:
        return all(not k for k in self.terms)

    def rational_value(self):
        if not self.terms:
            return _F0
        if self.is_symbol_free():
            return self.terms[()].rational_value()
        return None

    def is_unit_modulus(self) -> bool:
        return (self * self.conj()).is_one()

    def root_of_unity_order(self):
        """Least m with self^m == 1, or None.

        A scalar with symbol support never has finite order: distinct
        monomial keys are independent, so powers keep a nontrivial key.
        """
        if not self.terms or not self.is_symbol_free():
            return None
        return self.terms[()].root_of_unity_order()

    # -- arithmetic -----------------------------------------------------------

    def __add__(self, other):
        if not isinstance(other, PhasedScalar):
            other = PhasedScalar.of(other, self.order)
        a, b = self._common(other)
        out = dict(a.terms)
        for k, c in b.terms.items():
            if k in out:
                s = out[k] + c
                if s.is_zero():
                    del out[k]
                else:
                    out[k] = s
            else:
                out[k] = c
        return PhasedScalar(a.order, out)

    def __neg__(self):
        return PhasedScalar(self.order, {k: -c for k, c in self.terms.items()})

    def __sub__(self, other):  # __add__ coerces -other
        return self + (-other)

    def __mul__(self, other):
        if not isinstance(other, PhasedScalar):
            other = PhasedScalar.of(other, self.order)
        a, b = self._common(other)
        out: dict = {}
        for ka, ca in a.terms.items():
            for kb, cb in b.terms.items():
                k = _merge_keys(ka, kb)
                p = ca * cb
                if k in out:
                    s = out[k] + p
                    if s.is_zero():
                        del out[k]
                    else:
                        out[k] = s
                elif not p.is_zero():
                    out[k] = p
        return PhasedScalar(a.order, out)

    __rmul__ = __mul__

    __pow__ = _power

    def conj(self) -> "PhasedScalar":
        return PhasedScalar(
            self.order,
            {tuple((s, -e) for s, e in k): c.conj() for k, c in self.terms.items()})

    def inverse(self) -> "PhasedScalar":
        if not self.terms:
            raise ZeroDivisionError("inverse of zero")
        if len(self.terms) != 1:
            raise ValueError("inverse supported for single-term scalars only")
        ((key, c),) = self.terms.items()
        nkey = tuple((s, -e) for s, e in key)
        return PhasedScalar(self.order, {nkey: c.inverse()})

    def unit_sqrt(self) -> "PhasedScalar":
        """Some s with s*s == self.  Single-term scalars whose coefficient
        is a root of unity and whose symbol exponents are even."""
        if len(self.terms) != 1:
            raise ValueError("unit_sqrt needs a single-term scalar")
        ((key, c),) = self.terms.items()
        if any(e % 2 for _, e in key):
            raise ValueError("odd symbol exponent has no monomial square root")
        zetas, log = roots_of_unity(c.order)
        if (k := log.get(c.key())) is None:
            raise ValueError("coefficient is not a root of unity")
        # c = zeta_m^k, m = len(zetas), is zeta_(m/g)^(k/g) for g = gcd(k, m)
        g = gcd(k, len(zetas))
        half = PhasedScalar.of(Cyclotomic.zeta(2 * len(zetas) // g, k // g),
                               self.order)
        s = PhasedScalar(half.order, {tuple((n, e // 2) for n, e in key):
                                      half.terms[()]})
        if s * s != self:
            raise ArithmeticError(f"unit_sqrt: ({s})^2 != {self}")
        return s

    def substitute(self, values: dict[str, "PhasedScalar"]) -> "PhasedScalar":
        """Replace symbols by unit-modulus scalars; unlisted symbols stay."""
        out = PhasedScalar.zero(self.order)
        for key, c in self.terms.items():
            term = PhasedScalar.of(c)
            rest = []
            for s, e in key:
                if s in values:
                    v = values[s]
                    if not v.is_unit_modulus():
                        raise ValueError(f"substitution for {s!r} is not unit modulus")
                    term = term * v ** e
                else:
                    rest.append((s, e))
            if rest:
                term = term * PhasedScalar(term.order,
                                           {tuple(rest): Cyclotomic.one(term.order)})
            out = out + term
        return out

    def __eq__(self, other):
        if not isinstance(other, PhasedScalar):
            if not isinstance(other, (int, Fraction, Cyclotomic)):
                return NotImplemented
            other = PhasedScalar.of(other, self.order)
        a, b = self._common(other)
        return a.terms == b.terms

    __hash__ = None

    def __repr__(self):
        if not self.terms:
            return f"Scalar({self.order}; 0)"
        bits = []
        for key, c in sorted(self.terms.items()):
            mono = "*".join(f"{s}^{e}" for s, e in key)
            bits.append(f"({c!r})*{mono}" if mono else repr(c))
        return f"Scalar({self.order}; " + " + ".join(bits) + ")"


_ZERO = PhasedScalar.zero(1)


def _sumprod(terms) -> PhasedScalar:
    """The sum over terms of each term's product of nonzero scalars, for
    two or more pairs or for one tuple of any length.

    Symbol-free terms are formed in integer form at the lcm N of all their
    orders, over one common denominator, and reduced mod Phi_N once, where
    the chain of PhasedScalar products and sums would reduce each product
    and promote each partial sum.  The canonical form is unique, so both
    give the same scalar, of order N either way, which a sum cancelling to
    zero keeps in its JSON.  Symbols take the chain, as one pair takes its
    plain product and no term the order-1 zero."""
    if len(terms) < 2 and (not terms or len(terms[0]) == 2):
        return terms[0][0] * terms[0][1] if terms else _ZERO
    if not all(len(x.terms) == 1 and () in x.terms for t in terms for x in t):
        return sum((reduce(mul, t) for t in terms[1:]), reduce(mul, terms[0]))
    n = lcm(*(x.order for t in terms for x in t))
    if len(terms) == 1:                 # one product: fold exponents mod N
        acc, den = {0: 1}, 1
        for x in terms[0]:
            t, d = _int_form(x.terms[()], n)
            den *= d
            out: dict = {}
            for a, va in acc.items():
                for b, vb in t:
                    k = (a + b) % n
                    out[k] = out.get(k, 0) + va * vb
            acc = out
    else:
        forms = [(_int_form(a.terms[()], n), _int_form(b.terms[()], n))
                 for a, b in terms]
        den = lcm(*(da * db for (_, da), (_, db) in forms))
        raw = [0] * (2 * n - 1)         # pairs: lifted exponents are below N
        for (ta, da), (tb, db) in forms:
            f = den // (da * db)
            for ka, va in ta:
                va *= f
                for kb, vb in tb:
                    raw[ka + kb] += va * vb
        acc = dict(enumerate(raw))
    c = _reduce(n, acc, den)
    return PhasedScalar(n, {(): c} if c._num else {})


@lru_cache(maxsize=None)
def roots_of_unity(n: int) -> tuple[tuple, MappingProxyType]:
    """(zetas, log) for the m = lcm(2, n) roots of unity in Q(zeta_n):
    zetas[k] is zeta_m^k, of multiplicative order m / gcd(k, m), as a
    PhasedScalar at order n, and log maps its Cyclotomic key() to k;
    zeta_m is zeta_n, or -zeta_n^((n+1)/2) for odd n.  There are no
    others.  A root of order r puts zeta_L in Q(zeta_n) for
    L = lcm(r, n) = n t, so phi(L) = phi(n), and phi(L) / phi(n) is the
    product over p^a || t of p^a if p | n, else p^(a-1) (p - 1); it is 1
    only for t = 1, or t = 2 with n odd: r | m.  Callers share the table,
    so it is immutable."""
    m = lcm(2, n)
    h, sign = (1, 1) if m == n else ((n + 1) // 2, -1)
    roots = [_reduce(n, {k * h: sign ** k}, 1) for k in range(m)]
    return (tuple(PhasedScalar(n, {(): c}) for c in roots),
            MappingProxyType({c.key(): k for k, c in enumerate(roots)}))


# ---------------------------------------------------------------------------
# JSON encoding.  Exponent keys and rationals travel as strings.


def scalar_to_json(s: PhasedScalar) -> dict:
    def one_term(key, c):
        return ({str(k): str(v) for k, v in sorted(c.coeffs.items())},
                {name: e for name, e in key})

    if len(s.terms) <= 1:
        if s.terms:
            ((key, c),) = s.terms.items()
        else:
            key, c = (), Cyclotomic.zero(s.order)
        coeffs, symbols = one_term(key, c)
        return {"order": s.order, "coeffs": coeffs, "symbols": symbols}
    terms = []
    for key, c in sorted(s.terms.items()):
        coeffs, symbols = one_term(key, c)
        terms.append({"coeffs": coeffs, "symbols": symbols})
    return {"order": s.order, "terms": terms}


def json_int(v, what: str) -> int:
    """v itself if it is a JSON integer.  Floats and booleans are refused
    rather than truncated: 1.9, 1.0 and true are not 1."""
    if isinstance(v, bool) or not isinstance(v, int):
        raise ValueError(f"{what} must be an integer, not {v!r}")
    return v


def _term_items(t: dict) -> tuple[tuple, tuple]:
    coeffs, symbols = t["coeffs"], t.get("symbols", {})
    if not (isinstance(coeffs, dict) and isinstance(symbols, dict)):
        raise ValueError("'coeffs' and 'symbols' must be JSON objects")
    for e in symbols.values():
        json_int(e, "a symbol exponent")
    return tuple(coeffs.items()), tuple(symbols.items())


def scalar_json_key(obj: dict):
    """Hashable raw form of a flat entry, None for a multi-term one.  Equal
    keys decode to equal scalars, so a decoder may decode each key once.
    The integer fields are checked first: 1.0 and true equal 1 as keys.
    A bad coefficient never equals a string one, so it reaches the decoder."""
    if "terms" in obj:
        return None
    return (json_int(obj["order"], "'order'"), *_term_items(obj))


# the largest order a JSON scalar may name: decoding builds the reduction
# rows of Phi_order, which at order 4,620 take 2.1 s and 121 MiB on a Xeon
MAX_JSON_ORDER = 2048


def scalar_from_json(obj: dict, orders=None) -> PhasedScalar:
    """orders, a set of the orders read from one file, gains this one, and
    their lcm is bounded too: arithmetic promotes mixed orders to it."""
    order = json_int(obj["order"], "'order'")
    if order > MAX_JSON_ORDER:
        raise ValueError(f"'order' {order} is above {MAX_JSON_ORDER}")
    if orders is not None and order not in orders:
        if (n := lcm(order, *orders)) > MAX_JSON_ORDER:
            raise ValueError(f"entry orders have lcm {n}, above "
                             f"{MAX_JSON_ORDER}")
        orders.add(order)  # added once bounded, so a refusal repeats

    def parse_term(t) -> PhasedScalar:
        coeffs, symbols = _term_items(t)
        for k, v in coeffs:
            # only what scalar_to_json writes, str(k): int() would also
            # read the keys "1_0", " 1" and "00", and Fraction() a JSON float
            if not (k.isascii() and k.isdigit() and isinstance(v, str)):
                raise ValueError(f"coefficient {k!r}: {v!r} must map decimal "
                                 "digits to a string")
            if str(int(k)) != k:  # "0" and "00" would both be term 0
                raise ValueError(f"exponent key {k!r} has a leading zero")
        c = Cyclotomic(order, {int(k): Fraction(v) for k, v in coeffs})
        key = tuple(sorted((str(name), e) for name, e in symbols if e))
        for name, _ in key:
            if not name.isidentifier():
                raise ValueError(f"bad symbol name {name!r}")
        if c.is_zero():
            return PhasedScalar.zero(order)
        return PhasedScalar(order, {key: c})

    if "terms" in obj:
        if not isinstance(obj["terms"], list):
            raise ValueError("'terms' must be a JSON array")
        out = PhasedScalar.zero(order)
        for t in obj["terms"]:
            out = out + parse_term(t)
        return out
    return parse_term(obj)

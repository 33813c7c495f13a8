"""Dense matrices over exact phased-cyclotomic scalars.

A matrix is a row-major tuple of PhasedScalar entries together with a
single nonzero rational scale.  Keeping the scale outside the entries is
what removes square roots from the arithmetic: the Fourier matrix is
stored unnormalized with scale 1, conjugation products carry scale 1/d,
and is_scaled_unitary reports the rational constant s with
(scale*E)(scale*E)^dagger = s*I, so no tolerance is ever involved.
"""

from __future__ import annotations

from dataclasses import dataclass
from fractions import Fraction
from functools import reduce
from math import lcm
from operator import mul

from .cyclo import (PhasedScalar, _int_form, _reduce, json_int,
                    scalar_from_json, scalar_json_key, scalar_to_json)

_ZERO = PhasedScalar.zero(1)
_F1 = Fraction(1)


class ExactMatrix:
    __slots__ = ("rows", "cols", "entries", "scale")

    def __init__(self, rows: int, cols: int, entries, scale=_F1):
        scale = Fraction(scale)
        if not scale:
            raise ValueError("matrix scale must be nonzero")
        if rows < 0 or cols < 0:  # -2 x -2 would pass the count below
            raise ValueError(f"shape {rows} x {cols} is negative")
        entries = tuple(entries)
        if len(entries) != rows * cols:
            raise ValueError("entry count does not match shape")
        self.rows = rows
        self.cols = cols
        self.entries = entries
        self.scale = scale

    # -- constructors ---------------------------------------------------

    @staticmethod
    def from_rows(rows) -> "ExactMatrix":
        r = len(rows)
        c = len(rows[0]) if r else 0
        ents = []
        for row in rows:
            if len(row) != c:
                raise ValueError("ragged rows")
            ents.extend(PhasedScalar.of(x) for x in row)
        return ExactMatrix(r, c, ents)

    @staticmethod
    def monomial(sigma, values, scale=_F1) -> "ExactMatrix":
        """The d x d matrix with values[k] at [sigma[k], k] and zeros
        elsewhere: the inverse of monomial_data for nonzero values."""
        d = len(sigma)
        if sorted(sigma) != list(range(d)):
            raise ValueError("not a permutation")
        values = [PhasedScalar.of(v) for v in values]
        if len(values) != d:
            raise ValueError(f"{len(values)} values for a permutation of {d}")
        ents = [_ZERO] * (d * d)
        for k, (s, v) in enumerate(zip(sigma, values)):
            ents[s * d + k] = v
        return ExactMatrix(d, d, ents, scale)

    @staticmethod
    def identity(d: int) -> "ExactMatrix":
        return ExactMatrix.monomial(range(d), [PhasedScalar.one(1)] * d)

    @staticmethod
    def zeros(rows: int, cols: int) -> "ExactMatrix":
        return ExactMatrix(rows, cols, [_ZERO] * (rows * cols))

    @staticmethod
    def diagonal(values) -> "ExactMatrix":
        return ExactMatrix.monomial(range(len(values)), values)

    @staticmethod
    def from_permutation(sigma) -> "ExactMatrix":
        """P with P[sigma[k], k] = 1."""
        return ExactMatrix.monomial(sigma, [PhasedScalar.one(1)] * len(sigma))

    # -- access -----------------------------------------------------------

    def entry(self, i: int, j: int) -> PhasedScalar:
        return self.entries[i * self.cols + j]

    # -- arithmetic --------------------------------------------------------

    def __matmul__(self, other: "ExactMatrix") -> "ExactMatrix":
        if self.cols != other.rows:
            raise ValueError("shape mismatch in product")
        n, m, p = self.rows, self.cols, other.cols
        ae, be = self.entries, other.entries
        out = []
        for i in range(n):
            arow = i * m
            acc = [[] for _ in range(p)]  # per column, its (a, b) pairs
            for t in range(m):
                a = ae[arow + t]
                if not a.terms:
                    continue
                boff = t * p
                for j in range(p):
                    b = be[boff + j]
                    if b.terms:
                        acc[j].append((a, b))
            out += map(_dot, acc)
        return ExactMatrix(n, p, out, self.scale * other.scale)

    def __pow__(self, k: int) -> "ExactMatrix":
        if self.rows != self.cols:
            raise ValueError("power of a non-square matrix")
        if k < 0:
            raise ValueError("negative matrix powers unsupported")
        out = ExactMatrix.identity(self.rows)
        base = self
        while k:
            if k & 1:
                out = out @ base
            base = base @ base
            k >>= 1
        return out

    def scalar_mul(self, c) -> "ExactMatrix":
        if isinstance(c, (int, Fraction)) and c:
            return ExactMatrix(self.rows, self.cols, self.entries,
                               self.scale * Fraction(c))
        c = PhasedScalar.of(c)
        ents = [e * c if e.terms else _ZERO for e in self.entries]
        return ExactMatrix(self.rows, self.cols, ents, self.scale)

    def dagger(self) -> "ExactMatrix":
        n, m = self.rows, self.cols
        ents = [None] * (n * m)
        for i in range(n):
            for j in range(m):
                e = self.entries[i * m + j]
                ents[j * n + i] = e.conj() if e.terms else _ZERO
        return ExactMatrix(m, n, ents, self.scale)

    def trace(self) -> PhasedScalar:
        if self.rows != self.cols:
            raise ValueError("trace of a non-square matrix")
        t = PhasedScalar.zero(1)
        for i in range(self.rows):
            t = t + self.entries[i * self.cols + i]
        return t * self.scale

    def tensor(self, *others: "ExactMatrix") -> "ExactMatrix":
        """self (x) others[0] (x) ..., all factors in one call.

        A factor's nonzero entries are indexed by value, and each distinct
        tuple of them, one per factor, is multiplied once (_product) and
        its entry object shared by every cell it fills; zeros are the
        order-1 zero.  Keying each product to share equal products of
        distinct tuples too cost more than the products themselves.  The
        cells of all factors but the last are listed as (row, column,
        tuple) prefixes, and the last factor's cells streamed past each."""
        mats = (self, *others)
        rows, cols, scale = 1, 1, _F1
        for m in mats:
            rows, cols, scale = rows * m.rows, cols * m.cols, scale * m.scale
        cells, values = zip(*map(_cells, mats))
        prefix = [(0, 0, ())]
        for m, nz in zip(mats[:-1], cells[:-1]):
            prefix = [(r * m.rows + i, c * m.cols + j, ts + (t,))
                      for r, c, ts in prefix for i, j, t in nz]
        rl, cl = mats[-1].rows, mats[-1].cols
        ents = [_ZERO] * (rows * cols)
        memo = {}                   # by prefix tuple, then by last index
        for r, c, ts in prefix:
            base = r * rl * cols + c * cl
            row = memo.setdefault(ts, {})
            for i, j, t in cells[-1]:
                z = row.get(t)
                if z is None:
                    z = row[t] = _product([v[k] for v, k
                                           in zip(values, ts + (t,))])
                ents[base + i * cols + j] = z
        return ExactMatrix(rows, cols, ents, scale)

    def substitute(self, values) -> "ExactMatrix":
        ents = [e.substitute(values) if e.terms else e for e in self.entries]
        return ExactMatrix(self.rows, self.cols, ents, self.scale)

    # -- comparisons ---------------------------------------------------------

    def __eq__(self, other):
        if not isinstance(other, ExactMatrix):
            return NotImplemented
        if (self.rows, self.cols) != (other.rows, other.cols):
            return False
        if self.scale == other.scale:
            return all(a == b for a, b in zip(self.entries, other.entries))
        ratio = self.scale / other.scale
        return all(a * ratio == b for a, b in zip(self.entries, other.entries))

    __hash__ = None

    def equal_up_to_phase(self, other: "ExactMatrix"):
        """The unit-modulus c with self == c * other, else None.

        Scalars with symbols t_1..t_r form the Laurent ring
        R = K[t_1^+-1, ..., t_r^+-1] over the field K of cyclotomic
        coefficients.  A unit-modulus c has c * conj(c) = 1, so c is a unit
        of R, and the units of R are single terms k * monomial with k != 0:
        under a monomial order the highest and the lowest term of a product
        are the products of those of the factors, so a product equal to 1
        has factors whose highest and lowest terms coincide.  Multiplying by
        one term maps the terms of an entry b one to one onto those of c * b.
        Take b as other's first nonzero entry, the pivot, and a as self's
        entry there: c times one fixed term of b is a term of a = c * b.
        Each term of a thus gives one candidate; the one with candidate * b
        == a is then checked for unit modulus and on every entry.
        """
        if (self.rows, self.cols) != (other.rows, other.cols):
            return None
        idx = next((k for k, e in enumerate(other.entries) if e.terms), None)
        if idx is None:
            return PhasedScalar.one(1) if self.nonzero_count() == 0 else None
        a, b = self.entries[idx], other.entries[idx]
        kb, cb = next(iter(b.terms.items()))
        over = PhasedScalar(b.order, {kb: cb}).inverse()
        for ka, ca in a.terms.items():
            c = PhasedScalar(a.order, {ka: ca}) * over
            if c * b == a:
                break
        else:
            return None
        ratio = self.scale / other.scale
        c = c * ratio
        if not c.is_unit_modulus():
            return None
        plain = ratio == 1
        for x, y in zip(self.entries, other.entries):
            if not x.terms and not y.terms:
                continue
            lhs = x if plain else x * ratio
            if not (lhs == c * y):
                return None
        return c

    # -- structure ---------------------------------------------------------

    def is_scaled_unitary(self):
        """The rational s with (scale*M)(scale*M)^dagger = s*I, else None;
        None for 0 x 0, which every s satisfies."""
        if self.rows != self.cols or not self.rows:
            return None
        p = self @ self.dagger()
        d = self.rows
        first = p.entries[0].rational_value()
        if first is None or first == 0:
            return None
        for i in range(d):
            for j in range(d):
                e = p.entries[i * d + j]
                if i == j:
                    if not (e == p.entries[0]):
                        return None
                elif e.terms:
                    return None
        return p.scale * first

    def is_identity(self) -> bool:
        return self.rows == self.cols and self == ExactMatrix.identity(self.rows)

    def nonzero_count(self) -> int:
        return sum(1 for e in self.entries if e.terms)

    def zero_fraction(self) -> Fraction:
        total = self.rows * self.cols
        # 0 for a 0 x 0 matrix, as monomiality_report gives with no entries
        return Fraction(total - self.nonzero_count(), total or 1)

    def is_monomial(self) -> bool:
        """Exactly one nonzero entry in every row and every column."""
        return self.monomial_data() is not None

    def monomial_data(self):
        """(sigma, values) with self[sigma[k], k] = values[k], for monomial
        matrices; None otherwise."""
        if self.rows != self.cols:
            return None
        d = self.rows
        sigma = [None] * d
        values = [None] * d
        for i in range(d):
            hits = [j for j in range(d) if self.entries[i * d + j].terms]
            if len(hits) != 1 or sigma[hits[0]] is not None:
                return None
            j = hits[0]
            sigma[j] = i
            values[j] = self.entries[i * d + j]
        return sigma, values

    def __repr__(self):
        return (f"ExactMatrix({self.rows}x{self.cols}, scale={self.scale}, "
                f"nonzero={self.nonzero_count()})")


def _cells(m: ExactMatrix):
    """(row, column, index) per nonzero entry of m, and m's distinct
    nonzero entries by index."""
    index: dict = {}            # key -> (index, first entry of that key)
    cells = [(*divmod(c, m.cols),
              index.setdefault(e.key(), (len(index), e))[0])
             for c, e in enumerate(m.entries) if e.terms]
    return cells, [e for _, e in index.values()]


def _product(xs) -> PhasedScalar:
    """The product of nonzero scalars, symbol-free ones formed as _dot
    forms a sum: in integer form at the lcm N of their orders, reduced
    mod Phi_N once, giving the chain's scalar.  Symbols take the chain."""
    if not all(len(x.terms) == 1 and () in x.terms for x in xs):
        return reduce(mul, xs)
    n = lcm(*(x.order for x in xs))
    acc, den = {0: 1}, 1
    for x in xs:
        t, d = _int_form(x.terms[()], n)
        den *= d
        out: dict = {}
        get = out.get
        for a, va in acc.items():
            for b, vb in t:
                k = (a + b) % n
                out[k] = get(k, 0) + va * vb
        acc = out
    return PhasedScalar(n, {(): _reduce(n, acc, den)})


def _dot(pairs) -> PhasedScalar:
    """The sum of a * b over the (a, b) pairs of nonzero scalars.

    Two or more symbol-free pairs are convolved in integer form at the lcm
    N of their orders, over one common denominator, and reduced mod Phi_N
    once, where the chain of PhasedScalar products and sums would reduce
    each product and promote each partial sum.  The canonical form is
    unique, so both give the same scalar, of order N either way, which a
    sum cancelling to zero keeps in its JSON.  Symbols take the chain."""
    if len(pairs) < 2:
        return pairs[0][0] * pairs[0][1] if pairs else _ZERO
    if not all(len(x.terms) == 1 and () in x.terms for ab in pairs for x in ab):
        return sum((a * b for a, b in pairs[1:]), pairs[0][0] * pairs[0][1])
    n = lcm(*(x.order for ab in pairs for x in ab))
    forms = [(_int_form(a.terms[()], n), _int_form(b.terms[()], n))
             for a, b in pairs]
    den = lcm(*(da * db for (_, da), (_, db) in forms))
    raw = [0] * (2 * n - 1)     # lifted exponents are below n
    for (ta, da), (tb, db) in forms:
        f = den // (da * db)
        for ka, va in ta:
            va *= f
            for kb, vb in tb:
                raw[ka + kb] += va * vb
    c = _reduce(n, dict(enumerate(raw)), den)
    return PhasedScalar(n, {(): c} if c._num else {})


def hs_inner(a: ExactMatrix, b: ExactMatrix) -> PhasedScalar:
    """tr(a^dagger b) without forming the product."""
    if (a.rows, a.cols) != (b.rows, b.cols):
        raise ValueError("shape mismatch in inner product")
    return _dot([(x.conj(), y) for x, y in zip(a.entries, b.entries)
                 if x.terms and y.terms]) * (a.scale * b.scale)


@dataclass(frozen=True)
class MonomialityReport:
    is_monomial: bool
    zero_fraction: Fraction
    per_matrix_nonzero: tuple[int, ...]


def monomiality_report(matrices) -> MonomialityReport:
    """Reads any iterable one matrix at a time, so a generator of large
    matrices never holds more than one of them here."""
    counts = []
    total = 0
    monomial = True
    for m in matrices:
        counts.append(m.nonzero_count())
        total += m.rows * m.cols
        monomial = monomial and m.is_monomial()
    zeros = total - sum(counts)
    return MonomialityReport(
        is_monomial=monomial,
        zero_fraction=Fraction(zeros, total) if total else Fraction(0),
        per_matrix_nonzero=tuple(counts),
    )


# ---------------------------------------------------------------------------
# JSON.  Basis files repeat few distinct entries (48/49 of an induced
# heisenberg:7 member is zero): code each distinct entry once per memo.


def matrix_to_json(m: ExactMatrix, memo: dict | None = None) -> dict:
    """Equal entries share one JSON object, so treat the result as read-only.
    memo, which may serve a whole export, finds an entry by id, then by
    key(); it holds each object it keys by id, so no id is recycled."""
    memo = {} if memo is None else memo
    entries = []
    for e in m.entries:
        hit = memo.get(id(e))
        if hit is None:
            k = e.key()
            if k not in memo:
                memo[k] = scalar_to_json(e)
            hit = memo[id(e)] = (e, memo[k])
        entries.append(hit[1])
    return {
        "rows": m.rows,
        "cols": m.cols,
        "scale": str(m.scale),
        "entries": entries,
    }


def matrix_from_json(obj: dict, orders=None) -> ExactMatrix:
    """orders: the set of scalar_from_json, shared by one file's matrices."""
    memo: dict = {}
    entries = []
    orders = set() if orders is None else orders
    for e in obj["entries"]:
        k = scalar_json_key(e)
        v = memo.get(k)  # None, the key of a multi-term entry, is never stored
        if v is None:
            v = scalar_from_json(e, orders)
            if k is not None:
                memo[k] = v
        entries.append(v)
    if not isinstance(obj["scale"], str):  # Fraction() would read a float
        raise ValueError(f"'scale' must be a string, not {obj['scale']!r}")
    rows = json_int(obj["rows"], "'rows'")
    cols = json_int(obj["cols"], "'cols'")
    if rows < 1 or cols < 1:  # the entry count alone passes -2 x -2 and 0 x 0
        raise ValueError(f"shape {rows} x {cols} is not positive")
    return ExactMatrix(rows, cols, entries, Fraction(obj["scale"]))

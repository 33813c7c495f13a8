"""Integer-coefficient cyclotomic matrices on numpy, for bulk products.

A CycMatrix stores a d x d matrix over Z[zeta_p], p prime, as an int64
array of shape (d, d, p): coefficient vectors in Z[x]/(x^p - 1).  A
global Fraction scale carries denominators.  The representation is
redundant (1 + x + ... + x^{p-1} maps to zero); canon() subtracts the
top coefficient, which is a complete normal form because Phi_p has
degree p - 1.

Products are cyclic convolutions, formed as one int64 matmul against
the circulant expansion of the right factor while a bound on every
partial sum keeps it inside int64; larger coefficients are routed
through the dense exact layer.  Every path is exact.  This module trades
generality for speed; anything with symbols or composite conductor
stays in exactmat.
"""

from __future__ import annotations

from fractions import Fraction
from math import lcm

import numpy as np

from .cyclo import Cyclotomic, PhasedScalar, _reduce
from .exactmat import ExactMatrix

_I64_MAX = np.iinfo(np.int64).max
_SHIFT_IDX: dict = {}


def _shift_table(p: int) -> np.ndarray:
    """idx[k, e] = (e - k) mod p, so a[..., idx] stacks all p cyclic
    shifts of the coefficient axis."""
    t = _SHIFT_IDX.get(p)
    if t is None:
        e = np.arange(p)
        t = (e[None, :] - e[:, None]) % p
        _SHIFT_IDX[p] = t
    return t


class CycMatrix:
    __slots__ = ("p", "d", "a", "scale")

    def __init__(self, p: int, a: np.ndarray, scale: Fraction = Fraction(1)):
        if a.ndim != 3 or a.shape[0] != a.shape[1] or a.shape[2] != p:
            raise ValueError("coefficient array must be (d, d, p)")
        self.p = p
        self.d = a.shape[0]
        self.a = a
        self.scale = Fraction(scale)
        if self.scale == 0:
            raise ValueError("scale must be nonzero")

    @staticmethod
    def identity(d: int, p: int) -> "CycMatrix":
        a = np.zeros((d, d, p), dtype=np.int64)
        for i in range(d):
            a[i, i, 0] = 1
        return CycMatrix(p, a)

    def canon_array(self) -> np.ndarray:
        """Top coefficient forced to zero; unique representative."""
        return self.a - self.a[:, :, self.p - 1:self.p]

    def __matmul__(self, other: "CycMatrix") -> "CycMatrix":
        if self.p != other.p or self.d != other.d:
            raise ValueError("shape or conductor mismatch")
        p, d = self.p, self.d
        ma = int(np.abs(self.a).max(initial=0))
        mb = int(np.abs(other.a).max(initial=0))
        bound = ma * mb * d * p
        if ma and mb and bound > _I64_MAX // 4:
            exact = to_exact(self) @ to_exact(other)
            return from_exact(exact, p)
        # C[i, j, e] = sum_{k, s} A[i, k, s] B[k, j, e - s] is one
        # (d x dp)(dp x dp) matmul, b[k, s, j, e] = B[k, j, e - s].  Each
        # entry sums d*p products of magnitude at most ma*mb, so every
        # partial sum is at most d*p*ma*mb <= _I64_MAX // 4.
        b = other.a[:, :, _shift_table(p)].transpose(0, 2, 1, 3)
        c = self.a.reshape(d, d * p) @ b.reshape(d * p, d * p)
        return CycMatrix(p, c.reshape(d, d, p), self.scale * other.scale)

    def dagger(self) -> "CycMatrix":
        b = np.transpose(self.a, (1, 0, 2))
        b = b[:, :, (-np.arange(self.p)) % self.p]
        return CycMatrix(self.p, b.copy(), self.scale)

    def trace(self) -> Cyclotomic:
        return _vec_cyc(self.p, self.a.trace(axis1=0, axis2=1), self.scale)

    def __eq__(self, other):
        if not isinstance(other, CycMatrix):
            return NotImplemented
        if self.p != other.p or self.d != other.d:
            return False
        r = other.scale / self.scale
        return _scaled_match(self.canon_array(), other.canon_array(), r)

    __hash__ = None

    def equal_up_to_phase(self, other: "CycMatrix"):
        """Some c = r * zeta_p^k, r rational, with self == c * other;
        None if no such c exists.  Phases outside that family are not
        found here; callers wanting full generality go through exactmat.
        """
        if self.p != other.p or self.d != other.d:
            return None
        if self is other:
            return Cyclotomic.one(self.p)
        ca = self.canon_array()
        if not ca.any():
            if other.canon_array().any():
                return None
            return Cyclotomic.one(self.p)
        p = self.p
        # all p cyclic shifts at once; shifted[..., k, e] is zeta^k * other
        shifted = other.a[:, :, _shift_table(p)]
        shifted = shifted - shifted[:, :, :, p - 1:p]
        nz = np.argwhere(ca)
        i0, j0, e0 = (int(v) for v in nz[0])
        va = ca[i0, j0]
        cand = shifted[i0, j0]
        for k in range(p):
            vb = cand[k]
            if vb[e0] == 0:
                continue
            rq = Fraction(int(va[e0]), int(vb[e0]))
            if not _scaled_match(va, vb, rq):
                continue
            if _scaled_match(ca, shifted[:, :, k, :], rq):
                r = rq * self.scale / other.scale
                if r not in (1, -1):
                    return None          # not unit modulus
                return Cyclotomic(p, {k % p: r})
        return None


def _scaled_match(ca: np.ndarray, cb: np.ndarray, r: Fraction) -> bool:
    """ca == r * cb over the integers, exactly."""
    num, den = r.numerator, r.denominator
    m = max(int(np.abs(ca).max(initial=0)) * den,
            int(np.abs(cb).max(initial=0)) * abs(num))
    if m > _I64_MAX // 2:
        return np.array_equal(ca.astype(object) * den,
                              cb.astype(object) * num)
    return np.array_equal(ca * np.int64(den), cb * np.int64(num))


def from_exact(m: ExactMatrix, p: int) -> CycMatrix:
    """Dense exact matrix with symbol-free entries of conductor dividing
    p into packed form; coefficient denominators fold into the scale.
    Reads the integer form of each entry, numerators over a common
    denominator."""
    if m.rows != m.cols:
        raise ValueError("square matrices only")
    d = m.rows
    den = 1
    for e in m.entries:
        for key, c in e.terms.items():
            if key:
                raise ValueError("symbolic entries cannot be packed")
            if p % c.order:
                raise ValueError(f"conductor {c.order} does not divide {p}")
            den = lcm(den, c._den)
    triples = []
    big = 0
    for i in range(d):
        for j in range(d):
            e = m.entries[i * d + j]
            for c in e.terms.values():
                step = p // c.order
                mult = den // c._den
                for exp, num in c._num.items():
                    v = num * mult
                    triples.append((i, j, exp * step, v))
                    big = max(big, abs(v))
    dtype = np.int64 if big <= _I64_MAX // 2 else object
    a = np.zeros((d, d, p), dtype=dtype)
    for i, j, e, v in triples:
        a[i, j, e] += v
    return CycMatrix(p, a, m.scale / den)


def to_exact(cm: CycMatrix) -> ExactMatrix:
    d, p = cm.d, cm.p
    ents = []
    for i in range(d):
        for j in range(d):
            ents.append(PhasedScalar.of(_vec_cyc(p, cm.a[i, j])))
    return ExactMatrix(d, d, ents, cm.scale)


def _vec_cyc(p: int, vec, scale: Fraction = Fraction(1)) -> Cyclotomic:
    """scale * sum_e vec[e] zeta_p^e, reduced from the integer form."""
    return _reduce(p, {e: int(v) * scale.numerator
                       for e, v in enumerate(vec) if v}, scale.denominator)

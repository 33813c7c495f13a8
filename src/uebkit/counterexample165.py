"""A dimension-165 nice error basis with nonmonomial members.

The index group is G = (H_5 x H_11) semidirect H_3, Heisenberg groups
twisted by an order-3 symplectic action.  The degree-165 projective
representation mu is carried in tensor-factor form (3 x 3, 5 x 5 and
11 x 11 slots), so every defining property is checked exactly at factor
cost; the full 165 x 165 matrices are materialized only on demand.

The twist enters through conjugator words R_p built from the clock,
shift, Fourier and quadratic-diagonal matrices.  Every structural claim
about them (the conjugation identities, R_p cubing to a scalar, the
induced exponent action being an irreducible order-3 element of
SL(2, F_p), the lift of R_p being an automorphism of H_p) is verified as
a postcondition rather than assumed, so a wrong word or exponent choice
fails loudly instead of corrupting the basis; the alpha and beta of the
Fourier and diagonal words are read off the checked identities.
"""

from __future__ import annotations

import itertools
import random
from dataclasses import dataclass
from fractions import Fraction
from math import prod

from .cyclo import PhasedScalar, roots_of_unity
from .exactmat import (ExactMatrix, MonomialityReport, matrix_to_json,
                       monomiality_report)
from .groups import (DirectProduct, FiniteGroup,
                     HeisenbergElement, HeisenbergGroup, SL2Element, SL2Group,
                     SemidirectProduct, acts_irreducibly, center as center_of,
                     element_order, is_automorphism)
from .nice import (NicenessReport, ProjectiveRep, clock_matrix, quadratic_diag,
                   shift_matrix, verify_nice, weyl_matrix)
from .combinat import fourier_hadamard

DEFAULT_SEED = 1650
_MONOMIAL_SAMPLES = 12      # members materialized dense in verification
_PAIR_SAMPLES = 10_000      # random cocycle pairs beyond the generator pairs


class ConjugatorError(ValueError):
    """A conjugator postcondition failed; the word or exponent is wrong."""


# ---------------------------------------------------------------------------
# Weyl coordinates and automorphism lifts


def weyl_decompose(m: ExactMatrix, p: int):
    """(a, b, phase) with m == phase * Z^b X^a exactly and phase of unit
    modulus, else None.

    Column 0 of Z^b X^a has its one nonzero entry in row -a, which fixes
    a; each of the p candidates for b is then compared entrywise, so a
    successful return is a verified identity, not a pattern guess."""
    if m.rows != p or m.cols != p:
        return None
    rows = [i for i in range(p) if m.entry(i, 0).terms]
    if len(rows) != 1:
        return None
    a = (-rows[0]) % p
    for b in range(p):
        phase = m.equal_up_to_phase(weyl_matrix(p, a, b))
        if phase is not None:
            return a, b, phase
    return None


def conjugation_automorphism(group: HeisenbergGroup, u: ExactMatrix) -> dict:
    """The map f on the Heisenberg group with
    rho(f(g)) == U rho(g) U^dagger / s exactly, s the unitarity scale of U.

    Generator images come from exact Weyl decompositions; the extension
    uses the normal form (x, y, z) = b^y a^x c^z.  is_automorphism
    confirms f exactly on the group's generators (and that they
    generate).  This proves the defining property for every g: image()
    checks it at a and b, and both sides are homomorphisms in g, since
    U U^dagger = s I and rho = weyl_matrix is one by the X Z = zeta Z X
    guard in build_conjugators."""
    p = group.d
    s = u.is_scaled_unitary()
    if s is None:
        raise ConjugatorError("conjugator is not scaled-unitary")

    def image(m: ExactMatrix) -> HeisenbergElement:
        w = (u @ m @ u.dagger()).scalar_mul(Fraction(1, s))
        dec = weyl_decompose(w, p)
        if dec is None:
            raise ConjugatorError("conjugate of a Weyl element is not a "
                                  "phased Weyl element")
        a, b, phase = dec
        z = [k for k in range(p) if phase == PhasedScalar.zeta(p, k)]
        if not z:
            raise ConjugatorError("conjugation phase is not a p-th root of "
                                  "unity; no Heisenberg lift exists")
        return HeisenbergElement(p, a, b, z[0])

    img_a = image(shift_matrix(p))
    img_b = image(clock_matrix(p))
    comp, inv = group.compose, group.inverse
    # c = a^-1 b^-1 a b, so the image of c is forced
    img_c = comp(comp(inv(img_a), inv(img_b)), comp(img_a, img_b))
    pa, pb, pc = [group.identity], [group.identity], [group.identity]
    for _ in range(p - 1):
        pa.append(comp(pa[-1], img_a))
        pb.append(comp(pb[-1], img_b))
        pc.append(comp(pc[-1], img_c))
    images = {}
    for x in range(p):
        for y in range(p):
            base = comp(pb[y], pa[x])
            for z in range(p):
                images[HeisenbergElement(p, x, y, z)] = comp(base, pc[z])
    if not is_automorphism(group, images.__getitem__):
        raise ConjugatorError("lifted conjugation map is not an automorphism")
    return images


def _exponent_action(images: dict, p: int) -> SL2Element:
    """Columns are the (x, y) exponents of the generator images."""
    ia = images[HeisenbergElement(p, 1, 0, 0)]
    ib = images[HeisenbergElement(p, 0, 1, 0)]
    return SL2Element(p, ia.x, ib.x, ia.y, ib.y)


# ---------------------------------------------------------------------------
# conjugator sets


@dataclass
class ConjugatorSet:
    """Verified conjugation data for one Heisenberg factor.

    F is the unnormalized Fourier matrix (unitarity scale p); R is the
    order-3 twist word rescaled to honest unitarity.  gamma is the
    automorphism lift of forward conjugation by R, the direction the
    semidirect action composes with."""
    p: int
    e: int
    F: ExactMatrix
    D: ExactMatrix
    B: ExactMatrix
    R: ExactMatrix
    r_cubed: PhasedScalar
    action: SL2Element
    action_order: int
    gamma: dict
    group: HeisenbergGroup


def build_conjugators(p: int, e: int = 3) -> ConjugatorSet:
    """Build and verify the twist conjugator for one odd prime factor.

    R is ((D Z^e F) ** 2) / p.  Raises ConjugatorError when any
    postcondition fails, which is how a wrong exponent e announces
    itself.  With w = zeta_p and rho(x, y, z) = w^z Z^y X^x, the checked
    F+ X F = p Z and F+ Z F = p X^(p-1) give alpha = ((0, p - 1), (1, 0))
    and B+ X B = w^((p+1)/2) Z X and B+ Z B = Z give beta = ((1, 0),
    (1, 1)), columns being the (x, y) of the images of X and Z; these
    are conjugations as F / sqrt(p) and B are unitary (required)."""
    group = HeisenbergGroup(p)
    e %= p
    X, Z, D = shift_matrix(p), clock_matrix(p), quadratic_diag(p)
    F = fourier_hadamard(p)
    B = D @ weyl_matrix(p, 0, (p + 1) // 2)

    def require(ok: bool, what: str):
        if not ok:
            raise ConjugatorError(f"{what} (p={p}, e={e})")

    require(X @ Z == (Z @ X).scalar_mul(PhasedScalar.zeta(p)), "X Z != w Z X")
    require(F.is_scaled_unitary() == p, "F F+ != p I")
    require(F.dagger() @ X @ F == Z.scalar_mul(p), "F+ X F != p Z")
    require(F.dagger() @ Z @ F == weyl_matrix(p, p - 1, 0).scalar_mul(p),
            "F+ Z F != p X^-1")
    require(D.dagger() @ X @ D == Z @ X, "D+ X D != Z X")
    require(D.dagger() @ Z @ D == Z, "D+ Z D != Z")
    require(B.is_scaled_unitary() == 1, "B is not unitary")
    require(B.dagger() @ X @ B == (Z @ X).scalar_mul(
        PhasedScalar.zeta(p, (p + 1) // 2)), "B+ X B != w^((p+1)/2) Z X")
    require(B.dagger() @ Z @ B == Z, "B+ Z B != Z")

    word = D @ weyl_matrix(p, 0, e) @ F
    R = (word @ word).scalar_mul(Fraction(1, p))
    require(R.is_scaled_unitary() == 1, "R is not unitary after the 1/p scale")
    r_cubed = (R @ R @ R).equal_up_to_phase(ExactMatrix.identity(p))
    require(r_cubed is not None, "R^3 is not a scalar matrix")
    require(r_cubed.root_of_unity_order() is not None,
            "R^3 scalar is not a root of unity")

    gamma = conjugation_automorphism(group, R)
    action = _exponent_action(gamma, p)
    order = element_order(SL2Group(p), action)
    require(order == 3, f"induced action has order {order}, want 3")
    require(acts_irreducibly(action),
            "induced action has an eigenvector over F_p")
    return ConjugatorSet(p=p, e=e, F=F, D=D, B=B, R=R, r_cubed=r_cubed,
                         action=action, action_order=order, gamma=gamma,
                         group=group)


# ---------------------------------------------------------------------------
# tensor triples


_PRIMES = (3, 5, 11)


class TensorTriple:
    """A unitary on the 165-dimensional space in slot normal form.

    keys holds one 3-, 5- and 11-slot int key of the owning FactorMap;
    the member is zeta_330^j times the tensor product of the three pool
    entries.  A product multiplies the keys slot by slot by one slot rule
    (FactorMap._mul) and adds the exponents, with no matrix arithmetic.
    Every phase that arises is a power of zeta_330: slot phases are
    +-zeta_p^k, and a slot's central exponent z gives zeta_330^(330 z / p).
    Distinct keys are never proportional (_mul), so the slice of the
    matrix interface that the niceness verifier consumes (identity and
    unitarity tests, trace, comparison up to a unit phase) reads keys
    and exponents alone."""

    __slots__ = ("fm", "keys", "j")
    dim = 165

    def __init__(self, fm: "FactorMap", keys: tuple, j: int = 0):
        self.fm = fm
        self.keys = keys
        self.j = j % 330

    def __matmul__(self, other: "TensorTriple") -> "TensorTriple":
        keys, js = zip(*map(self.fm._mul, _PRIMES, self.keys, other.keys))
        return TensorTriple(self.fm, keys, self.j + other.j + sum(js))

    def is_identity(self) -> bool:
        # the slot signs are folded into j, so (-I) (x) (-I) (x) I, the
        # identity of the product, has j = 0 as well
        return self.j == 0 and not any(self.keys)

    def is_scaled_unitary(self):
        # every key is a pool entry, unitary by the argument of
        # FactorMap._verify_pools
        return Fraction(1)

    def trace(self) -> PhasedScalar:
        tr, (k3, k5, k11) = self.fm.tr, self.keys
        t3, t5, t11 = tr[3][k3], tr[5][k5], tr[11][k11]
        if t3.is_zero() or t5.is_zero() or t11.is_zero():
            return PhasedScalar.zero(1)
        out = t3 * t5 * t11
        return out * self.fm.zetas[self.j] if self.j else out

    def is_monomial(self) -> bool:
        """A p x p unitary has at least p nonzero entries, one per
        column, and exactly p when it is monomial, as its columns are
        independent.  The member's count is the product of the slot
        counts, so it is 165 exactly when every slot is monomial, which
        is when the member is."""
        k3, k5, k11 = self.keys
        nnz = self.fm.nnz
        return nnz[3][k3] * nnz[5][k5] * nnz[11][k11] == 165

    def equal_up_to_phase(self, other: "TensorTriple"):
        if self.keys != other.keys:
            return None
        return self.fm.zetas[(self.j - other.j) % 330]

    def column_sweep(self, rep, elems, columns):
        """For each generator column (s, right) of verify_nice, one at a
        time, the positions i in elems whose pair, (elems[i], s) if right
        else (s, elems[i]), is rejected; rep's members share this FactorMap.

        For s and a side, _mul tabulates the slot products of s's keys
        with every key of the other factor: 9 + 75 + 363 keys.  These are
        the keys __matmul__ gives the pair's product, which is a unit
        multiple of the composed member exactly when its keys are that
        member's (equal_up_to_phase).  So the sweep rejects a pair exactly
        when the member product does, and forms no product."""
        fm, member, compose = self.fm, rep.matrix, rep.group.compose
        keys = {x: member(x).keys for x in elems}
        for s, right in columns:
            r3, r5, r11 = ([fm._mul(p, a, b)[0] if right else fm._mul(p, b, a)[0]
                            for a in range(len(fm.pool[p]))]
                           for p, b in zip(_PRIMES, member(s).keys))
            col = ([compose(x, s) for x in elems] if right
                   else [compose(s, x) for x in elems])
            yield [i for i, ((a3, a5, a11), c)
                   in enumerate(zip(keys.values(), col))
                   if (r3[a3], r5[a5], r11[a11]) != keys[c]]

    def __repr__(self):
        return f"TensorTriple({self.keys!r}, j={self.j})"


# ---------------------------------------------------------------------------
# the factor-form representation


class FactorMap:
    """mu in factor form, backed by three lookup pools.

    Each slot is a Weyl basis at p twisted by powers of R_p, the 3-slot
    the untwisted one (R = I): pool[p] lists Z^y X^x R^k by int key
    n (p x + y) + k, n = 3 twist powers, 1 in the 3-slot.  A group element
    ((n5, n11), h) maps per slot to an int key (k = 0, h.x and h.y) and a
    central exponent z_p (h.z, n5.z, n11.z), so quotient representatives
    (central exponents zero) hit the pools directly.

    Every pool entry is unitary (the argument is in _verify_pools),
    which is what entitles every TensorTriple to unitarity scale 1.

    Slot products multiply no matrices: _mul names the pool entry and
    the phase of a product of two pool entries by the Heisenberg law
    and the verified twist.  verify_counterexample checks it against
    dense products of pool entries."""

    def __init__(self, conj5: ConjugatorSet, conj11: ConjugatorSet,
                 seed: int = 0):
        self.conj5, self.conj11 = conj5, conj11
        # per prime, by int key: the pool entries, their traces promoted to
        # conductor p (one per slot) and their nonzero counts
        r5, r11 = conj5.R, conj11.R
        self.pool = {3: self._pool(3, ()), 5: self._pool(5, (r5, r5 @ r5)),
                     11: self._pool(11, (r11, r11 @ r11))}
        self.tr = {p: [m.trace().promote(p) for m in pool]
                   for p, pool in self.pool.items()}
        self.nnz = {p: [m.nonzero_count() for m in pool]
                    for p, pool in self.pool.items()}
        self._verify_pools(random.Random(seed))
        self.zetas, self._power = roots_of_unity(330)
        # per prime: [id, gamma, gamma^2] on H_p, shared with build_g165,
        # and as lists taking p x + y to the (x', y', z') of the image of
        # (x, y, 0), shared with Quotient165; the zeta_330 exponent of R^3
        self.powers = {c.p: _aut_powers(c.group, c.gamma)
                       for c in (conj5, conj11)}
        self._gamma = {p: [[f[HeisenbergElement(p, x, y, 0)][1:]
                            for x in range(p) for y in range(p)]
                           for f in self.powers[p]] for p in (5, 11)}
        self._gamma[3] = [[(x, y, 0) for x in range(3) for y in range(3)]]
        self._wrap = {c.p: self._power[c.r_cubed.terms[()].promote(330).key()]
                      for c in (conj5, conj11)}

    def _pool(self, p: int, twists: tuple) -> list:
        """The p-slot pool by int key: W(x, y) R^k for R^0 = I and each
        twist power R^k in twists (R and R^2, none in the 3-slot).

        Row i of W = W(x, y) has one nonzero entry w, in column t = i + x
        mod p, so row i of W R^k is w times row t of R^k: one product per
        entry, as the dense W @ R^k forms it.  R and R^2 hold p distinct
        entries each, and w is one of p + 1 (the order-1 one when y = 0,
        else zeta_p^(y i)), so each distinct product is formed once and
        its PhasedScalar shared."""
        rp = [(m, [e.key() for e in m.entries]) for m in twists]
        pool, memo = [], {}
        for x in range(p):
            for y in range(p):
                w = weyl_matrix(p, x, y)
                pool.append(w)
                for m, keys in rp:
                    ents = []
                    for i in range(p):
                        t = (i + x) % p
                        a = w.entry(i, t)
                        ak = a.key()
                        for c in range(t * p, t * p + p):
                            v = memo.get((ak, keys[c]))
                            if v is None:
                                b = m.entries[c]
                                v = memo[ak, keys[c]] = (
                                    a * b if b.terms else PhasedScalar.zero(1))
                            ents.append(v)
                    pool.append(ExactMatrix(p, p, ents, w.scale * m.scale))
        return pool

    def _verify_pools(self, rng):
        """Dense unitarity on a seeded sample, and the Heisenberg law of
        the 3-slot.

        Every pool entry is unitary, so no entry needs a sweep.  An entry
        is W(x, y) R^k: W a Weyl matrix, one root of unity in each row and
        column, a unitary by construction, and R the twist, whose
        R.is_scaled_unitary() == 1 build_conjugators requires (k = 0 in
        the 3-slot).  A product of unitaries is unitary, and exact
        arithmetic makes the stored entry that exact product."""
        for p, pool in self.pool.items():
            for key in rng.sample(range(len(pool)), min(8, len(pool))):
                if pool[key].is_scaled_unitary() != 1:
                    raise ArithmeticError(f"dense unitarity check failed at "
                                          f"{key} (p={p})")
        # the Heisenberg law of the 3-slot normal form, X3 = W(1, 0) and
        # Z3 = W(0, 1); build_conjugators checks it at p = 5 and 11
        x3, z3 = self.pool[3][3 * 1 + 0], self.pool[3][3 * 0 + 1]
        if not (x3 @ z3 == (z3 @ x3).scalar_mul(PhasedScalar.zeta(3))):
            raise ArithmeticError("X Z != zeta Z X (p=3)")

    @staticmethod
    def _keys(g):
        """(int key, central exponent z_p) of g in the 3-, 5- and 11-slot."""
        (n5, n11), h = g
        return ((3 * h.x + h.y, h.z), (3 * (5 * n5.x + n5.y) + h.x, n5.z),
                (3 * (11 * n11.x + n11.y) + h.y, n11.z))

    def triple(self, g) -> TensorTriple:
        """The member of g in G: its coset's times zeta_p^(z_p) per slot."""
        j = sum(330 // p * z for p, (_, z) in zip(_PRIMES, self._keys(g)))
        return TensorTriple(self, self.member(Quotient165.index(g)).keys, j)

    def member(self, i: int) -> TensorTriple:
        """The member of Quotient165 position i = 1089 a5 + 9 a11 + a3,
        whose slot keys are a3, 3 a5 + x3 and 3 a11 + y3, with j = 0."""
        a5, r = divmod(i, 1089)
        a11, a3 = divmod(r, 9)
        return TensorTriple(self, (a3, 3 * a5 + a3 // 3, 3 * a11 + a3 % 3))

    def exact_matrix(self, g) -> ExactMatrix:
        """The dense 165 x 165 member, for export and dense checks: the
        tensor product of the slots' zeta_p^(z_p) pool[key]."""
        e3, e5, e11 = (self.pool[p][k].scalar_mul(PhasedScalar.zeta(p, z))
                       for p, (k, z) in zip(_PRIMES, self._keys(g)))
        return e3.tensor(e5, e11)

    def _mul(self, p: int, a: int, b: int):
        """(key, j): pool[a] pool[b] == zeta_330^j pool[key] in the p-slot.

        Key n (p x + y) + k is W(x, y) R^k, n = len(_gamma[p]) twist
        powers: 3 in the 5- and 11-slots, 1 in the 3-slot, where R = I
        and _gamma[3] is the identity.  W = rho(x, y, 0) obeys the
        Heisenberg law by the X Z = zeta Z X guards in build_conjugators
        and _verify_pools, and W(h) R^k W(h') R^k' = W(h gamma^k(h'))
        R^(k+k'), as R rho(h) R^dagger = rho(gamma(h)) for every h
        (conjugation_automorphism); when k + k' reaches 3,
        R^3 = r_cubed I (checked) contributes its exponent.  The central
        part z of the product gives zeta_p^z.

        Distinct keys are never proportional.  With equal k, Weyl
        matrices with distinct (x, y) are trace-orthogonal.  With
        k != k', R^j for j = 1 or 2 would be a multiple of a Weyl matrix;
        conjugation by a Weyl matrix fixes every (x, y) exponent, but the
        exponent action of gamma has order 3 (action_order, checked)."""
        if not b:
            return a, 0
        if not a:
            return b, 0
        gamma = self._gamma[p]
        n = len(gamma)
        xy, k = divmod(a, n)
        uv, t = divmod(b, n)
        u, v, c = gamma[k][uv]
        x, y = divmod(xy, p)
        j = 330 // p * (c + x * v)
        k += t
        if k >= n:
            k, j = k - n, j + self._wrap[p]
        return ((x + u) % p * p + (y + v) % p) * n + k, j % 330


# ---------------------------------------------------------------------------
# the index group of order 3^3 5^3 11^3


@dataclass
class G165:
    """The built construction: abstract group, central quotient, factor
    representation, and the verified conjugator sets."""
    group: FiniteGroup
    quotient: Quotient165
    center: list
    center_generator: tuple
    conj5: ConjugatorSet
    conj11: ConjugatorSet
    factors: FactorMap
    rep: ProjectiveRep
    checks: dict


def _aut_powers(group: HeisenbergGroup, images: dict) -> list:
    """[identity, f, f o f] as lookup dicts; f must cube to identity."""
    ident = {g: g for g in group.elements()}
    sq = {g: images[images[g]] for g in images}
    if {g: images[sq[g]] for g in images} != ident:
        raise ConjugatorError("automorphism does not have order dividing 3")
    return [ident, images, sq]


class Quotient165(FiniteGroup):
    """G/Z(G), each coset coded as the position of its representative
    ((n5, n11), h) with z = 0: 1089 a5 + 9 a11 + a3, a5 = 5 x5 + y5,
    a11 = 11 x11 + y11, a3 = 3 x3 + y3, which nests x5, y5, x11, y11,
    x3, y3 in that order.  index maps G onto positions; label inverts it.

    tables = (T5, T11), T_p[k] = FactorMap._gamma[p][k] taking p x + y to
    the (x, y, z) of gamma_p^k(x, y, 0).  ((n5, n11), h) ((m5, m11), k)
    is n5 + T5[h.x](m5) mod 5, n11 + T11[h.y](m11) mod 11 and h + k mod 3
    in (x, y), with z = 0: G gives ((n5 gamma_5^h.x(m5),
    n11 gamma_11^h.y(m11)), h k), and z never feeds back into x and y.
    compose reads these sums as positions from tables built alike, with
    _gamma[3] the identity: 3 x 25 x 25 and 3 x 121 x 121 picked by x3
    and y3, 1 x 9 x 9 for h k; and a position's digits from a list.
    _check_law confirms T_p and the law against G."""

    identity = 0

    def __init__(self, parent, center: list, gamma: dict):
        self.parent, self.order = parent, parent.order // len(center)
        self.generators = tuple(map(self.index, parent.generators))
        self.tables = (gamma[5], gamma[11])

        def sums(p, place):
            # sums[k][a][b]: place times the position of a + gamma^k(b)
            scaled = [place * q for q in range(p * p)]
            return [[[scaled[(a // p + u) % p * p + (a + v) % p]
                      for u, v, _ in row] for a in range(p * p)]
                    for row in gamma[p]]

        s5, s11, (self._t3,) = sums(5, 1089), sums(11, 9), sums(3, 1)
        # by a3 = 3 x3 + y3: the 5-part twists by x3, the 11-part by y3
        self._t5 = [s5[a3 // 3] for a3 in range(9)]
        self._t11 = [s11[a3 % 3] for a3 in range(9)]
        # (a5, a11, a3) by position: half the cost of compose's divmods
        self._digits = list(itertools.product(range(25), range(121), range(9)))

    @staticmethod
    def index(g) -> int:
        (n5, n11), h = g
        return (5 * n5.x + n5.y) * 1089 + (11 * n11.x + n11.y) * 9 \
            + 3 * h.x + h.y

    def label(self, i: int):
        a5, a11, a3 = self._digits[i]
        return ((HeisenbergElement(5, *divmod(a5, 5), 0),
                 HeisenbergElement(11, *divmod(a11, 11), 0)),
                HeisenbergElement(3, *divmod(a3, 3), 0))

    def elements(self):
        return iter(range(self.order))

    def compose(self, i: int, j: int) -> int:
        a5, a11, a3 = self._digits[i]
        b5, b11, b3 = self._digits[j]
        return self._t5[a3][a5][b5] + self._t11[a3][a11][b11] \
            + self._t3[a3][b3]


def _check_law(Q: Quotient165, conj5: ConjugatorSet, conj11: ConjugatorSet):
    """Raise ArithmeticError unless each entry of Q's tables is the (x, y)
    image under the matching power of the exponent action, and Q composes
    the 36 ordered pairs of generating cosets as the parent G does."""
    for c, table in zip((conj5, conj11), Q.tables):
        p, sl2 = c.p, SL2Group(c.p)
        powers = [sl2.identity, c.action, sl2.compose(c.action, c.action)]
        bad = [(j, x, y) for j, m in enumerate(powers)
               for x, y in itertools.product(range(p), repeat=2)
               if table[j][p * x + y][:2] != ((m.a * x + m.b * y) % p,
                                              (m.c * x + m.d * y) % p)]
        if bad:
            raise ArithmeticError(f"table entry (j, x, y) = {bad[0]} (p={p}) "
                                  "is not the exponent action's")
    gens, G, label = Q.generators, Q.parent, Q.label
    bad = [(label(s), label(t)) for s in gens for t in gens
           if Q.compose(s, t) != Q.index(G.compose(label(s), label(t)))]
    if bad:
        raise ArithmeticError(f"quotient law disagrees with G at {bad[0]}")


def build_g165(seed: int = DEFAULT_SEED) -> G165:
    """Construct the order-4492125 group, its degree-165 factor map, and
    the central quotient indexing the error basis.

    Structural checks run as the pieces are assembled; anything failing
    raises rather than returning a half-built object.

    G is a group: act is a homomorphism H_3 -> Aut(H_5 x H_11), as each
    gamma is an exact automorphism, _aut_powers checks gamma^3 = id and
    h -> (h.x, h.y) mod 3 adds under Heisenberg composition.

    rho(t_1 ... t_k) ~ rho(t_1) ... rho(t_k), up to a unit phase, for
    every generator word: verify_counterexample, which construct and
    verify counterexample165 always run, checks rho(q) rho(s) ~ rho(q s)
    for every coset q and generating coset s.  Induct on k with
    rho(g) ~ member(Q.index(g)) (triple reads z only into the phase) and
    Q.index(g t) = Q.compose(Q.index(g), Q.index(t)) (the law of
    Quotient165, as index only forgets z)."""
    conj5 = build_conjugators(5, 3)
    conj11 = build_conjugators(11, 3)
    H5, H11, H3 = conj5.group, conj11.group, HeisenbergGroup(3)
    factors = FactorMap(conj5, conj11, seed=seed)
    g5, g11 = factors.powers[5], factors.powers[11]

    def act(h, n):
        return (g5[h.x][n[0]], g11[h.y][n[1]])

    G = SemidirectProduct(DirectProduct(H5, H11), H3, act)
    if G.order != 4_492_125:
        raise ArithmeticError(f"group order {G.order}, want 4492125")

    center = G.center_structural()
    if center is None or len(center) != 165:
        raise ArithmeticError("structural center is not of order 165")
    zc = ((HeisenbergElement(5, 0, 0, 1), HeisenbergElement(11, 0, 0, 1)),
          HeisenbergElement(3, 0, 0, 1))
    zc_order = element_order(G, zc)
    if zc_order != 165:
        raise ArithmeticError("center has no element of order 165")

    quotient = Quotient165(G, center, factors._gamma)
    if quotient.order != 27_225:
        raise ArithmeticError("quotient order is off")
    _check_law(quotient, conj5, conj11)

    # the structural center is all of Z(G): a coset commuting with the
    # six generating cosets must be the identity coset, and the 165
    # structural elements commute with the generators exactly
    if center_of(quotient) != [quotient.identity]:
        raise ArithmeticError("additional central cosets found; the center "
                              "is larger than the structural one")
    for z in center:
        for t in G.generators:
            if G.compose(z, t) != G.compose(t, z):
                raise ArithmeticError("structural center element fails to "
                                      "commute with a generator")

    rep = ProjectiveRep(quotient, 165, factors.member, label="g165")

    checks = {
        "group_order": G.order,
        "center_order": len(center),
        "center_cyclic_witness_order": zc_order,
        "quotient_order": quotient.order,
        "generator_matrices_pinned": _check_generators(G, factors),
    }
    if not checks["generator_matrices_pinned"]:
        raise ArithmeticError("generator images differ from the pinned "
                              "tensor factors")
    return G165(group=G, quotient=quotient, center=center,
                center_generator=zc, conj5=conj5, conj11=conj11,
                factors=factors, rep=rep, checks=checks)


def _check_generators(G, factors: FactorMap) -> bool:
    """The six generator images must equal the pinned tensor factors
    entrywise: I(x)X5(x)I, I(x)Z5(x)I, I(x)I(x)X11, I(x)I(x)Z11,
    X3(x)R5(x)I, Z3(x)I(x)R11."""
    i3, i5, i11 = (ExactMatrix.identity(p) for p in _PRIMES)
    want = [
        (i3, shift_matrix(5), i11),
        (i3, clock_matrix(5), i11),
        (i3, i5, shift_matrix(11)),
        (i3, i5, clock_matrix(11)),
        (shift_matrix(3), factors.conj5.R, i11),
        (clock_matrix(3), i5, factors.conj11.R),
    ]
    for gen, slots in zip(G.generators, want):
        got = factors.triple(gen)
        if got.j or not all(factors.pool[p][key] == b
                            for p, key, b in zip(_PRIMES, got.keys, slots)):
            return False
    return True


# ---------------------------------------------------------------------------
# verification report


CAVEAT = (
    "Nonmonomiality is verified entrywise for the constructed members "
    "in the computational basis.  The stronger claim that no equivalent "
    "basis is monomial (equivalence allowing two-sided unitary factors, "
    "scalars and permutations) is a group-theoretic statement about the "
    "index group lacking a suitable index-165 subgroup; it is recorded "
    "here but not re-verified by this module."
)


@dataclass
class CounterexampleReport:
    dim: int
    group_order: int
    quotient_order: int
    center_order: int
    center_cyclic: bool
    trace_zero_count: int
    trace_nonzero_labels: tuple
    identity_trace_ok: bool
    niceness: NicenessReport
    center_scalars_ok: bool
    monomial_members: int
    nonmonomial_members: int
    generator_monomiality: MonomialityReport
    nonmonomial_witness: object
    cross_checks: int
    cross_ok: bool
    caveat: str

    @property
    def ok(self) -> bool:
        return (self.group_order == 4_492_125 and self.center_order == 165
                and self.center_cyclic
                and self.trace_zero_count == self.quotient_order - 1
                and len(self.trace_nonzero_labels) == 1
                and self.niceness.ok
                and self.center_scalars_ok and self.nonmonomial_members > 0
                and not self.generator_monomiality.is_monomial
                and self.cross_ok)

    def summary(self) -> dict:
        unreported = ("trace_nonzero_labels", "generator_monomiality")
        return {**{k: v for k, v in vars(self).items() if k not in unreported},
                "niceness": self.niceness.summary(),
                "nonmonomial_witness": str(self.nonmonomial_witness),
                "ok": self.ok}


def verify_counterexample(g: G165, seed: int = DEFAULT_SEED
                          ) -> CounterexampleReport:
    """Run every checkable claim about the built basis, its members read
    by Quotient165 position and reported by label.

    The niceness verifier sweeps identity, unitarity and traces in full
    and proves the cocycle condition on every pair (cocycle_exhaustive),
    so the members are pairwise trace-orthogonal: rho(g)^dagger rho(h) is
    a unit multiple of rho(g^-1 h), of trace 0 for g != h.  Monomiality
    counts sweep all 27225 members in factor form; they and the traces
    are recomputed on dense generators and a seeded member sample."""
    fm, Q, member = g.factors, g.quotient, g.rep.matrix
    rng = random.Random(seed)

    niceness = verify_nice(g.rep, pair_mode="sampled", seed=seed,
                           sample_size=_PAIR_SAMPLES)
    # verify_nice sweeps every trace, with no cap on the failures it
    # records: ("trace", Q.label(i)) for each non-identity member whose
    # trace is nonzero, and for the identity if its trace is not 165
    e = Q.label(Q.identity)
    nonzero = {f[1] for f in niceness.failures if f[0] == "trace"} - {e}
    if not member(Q.identity).trace().is_zero():
        nonzero.add(e)

    # from dense matrices: in factor form a central member is its
    # exponent alone, so comparing triples would only restate z
    center_scalars_ok = True
    ident = ExactMatrix.identity(165)
    o5, o11, o3 = (HeisenbergElement(p, 0, 0, 0) for p in (5, 11, 3))
    (c5, c11), c3 = g.center_generator
    for z in (((c5, o11), o3), ((o5, c11), o3), ((o5, o11), c3)):
        c = fm.exact_matrix(z).equal_up_to_phase(ident)
        if c is None or c.is_one() or not c.is_unit_modulus():
            center_scalars_ok = False

    monomial = sum(1 for i in Q.elements() if member(i).is_monomial())
    nonmonomial = Q.order - monomial
    witness = next((Q.label(s) for s in Q.generators
                    if not member(s).is_monomial()), None)

    generator_monomiality = monomiality_report(
        fm.exact_matrix(t) for t in g.group.generators)
    # seeded dense members against the factor-form answers the counts and
    # traces above read; every member is compared, and none is kept
    cross_ok = True
    for i in rng.sample(range(Q.order), _MONOMIAL_SAMPLES):
        m = fm.exact_matrix(Q.label(i))
        if (m.is_monomial() != member(i).is_monomial()
                or m.trace() != member(i).trace()):
            cross_ok = False

    # the key and phase _mul names for a product of two pool entries,
    # against their dense product
    cross = 0
    for p in (5, 11):
        pool = fm.pool[p]
        for _ in range(10):
            ka, kb = rng.choice(range(len(pool))), rng.choice(range(len(pool)))
            key, j = fm._mul(p, ka, kb)
            c = (pool[ka] @ pool[kb]).equal_up_to_phase(pool[key])
            if c is None or j != fm._power.get(c.terms[()].promote(330).key()):
                cross_ok = False
            cross += 1

    # one full-value probe of the dense assembly, central phases and a
    # twisted slot included, against a reference that shares no code with
    # its integer form: each nonzero entry is the PhasedScalar chain of
    # one cell per slot times the slot's central phase, and the count of
    # nonzero entries leaves every other entry zero
    probe = ((HeisenbergElement(5, 1, 2, 3), HeisenbergElement(11, 4, 5, 6)),
             HeisenbergElement(3, 1, 0, 2))
    dense = fm.exact_matrix(probe)
    slots = ((fm.pool[3][3 * 1 + 0], PhasedScalar.zeta(3, 2)),
             (fm.pool[5][3 * (5 * 1 + 2) + 1], PhasedScalar.zeta(5, 3)),
             (fm.pool[11][3 * (11 * 4 + 5) + 0], PhasedScalar.zeta(11, 6)))
    cells = [[(i, j, m.entry(i, j) * w) for i in range(p) for j in range(p)
              if m.entry(i, j).terms] for (m, w), p in zip(slots, _PRIMES)]
    if (dense.scale != prod(m.scale for m, _ in slots)
            or dense.nonzero_count() != prod(map(len, cells))
            or not all(dense.entry((i3 * 5 + i5) * 11 + i11,
                                   (j3 * 5 + j5) * 11 + j11) == a * b * c
                       for (i3, j3, a), (i5, j5, b), (i11, j11, c)
                       in itertools.product(*cells))):
        cross_ok = False
    cross += 1

    return CounterexampleReport(
        dim=165, group_order=g.group.order, quotient_order=g.quotient.order,
        center_order=len(g.center),
        center_cyclic=g.checks["center_cyclic_witness_order"] == 165,
        trace_zero_count=Q.order - len(nonzero),
        trace_nonzero_labels=tuple(sorted(nonzero, key=Q.index)),
        identity_trace_ok=niceness.trace_ok, niceness=niceness,
        center_scalars_ok=center_scalars_ok, monomial_members=monomial,
        nonmonomial_members=nonmonomial,
        generator_monomiality=generator_monomiality,
        nonmonomial_witness=witness, cross_checks=cross, cross_ok=cross_ok,
        caveat=CAVEAT)


# ---------------------------------------------------------------------------
# export


def export_bundle(g: G165, factors_only: bool = True) -> dict:
    """JSON-ready description: conjugators, factor pools, generator
    labels, and optionally the dense 165 x 165 generator matrices; one
    matrix_to_json memo codes each entry they share once."""
    def conj_json(c: ConjugatorSet) -> dict:
        return {
            "p": c.p, "e": c.e,
            "F": matrix_to_json(c.F, memo), "D": matrix_to_json(c.D, memo),
            "B": matrix_to_json(c.B, memo), "R": matrix_to_json(c.R, memo),
            "r_cubed": str(c.r_cubed),
            "action": [[c.action.a, c.action.b], [c.action.c, c.action.d]],
            "action_order": c.action_order,
        }

    def pool_json(p: int, pool: list) -> dict:
        # int key i = n (p x + y) + k named "x,y,k", and "x,y" in the 3-slot
        n = len(fm._gamma[p])
        return {f"{i // n // p},{i // n % p}" + (f",{i % n}" if n > 1 else ""):
                matrix_to_json(m, memo) for i, m in enumerate(pool)}

    fm, memo = g.factors, {}
    bundle = {
        "dim": 165,
        "group_order": g.group.order,
        "quotient_order": g.quotient.order,
        "center_order": len(g.center),
        "conjugators": {"5": conj_json(g.conj5), "11": conj_json(g.conj11)},
        "factor_pools": {str(p): pool_json(p, pool)
                         for p, pool in fm.pool.items()},
        "generators": [str(t) for t in g.group.generators],
        "caveat": CAVEAT,
    }
    if not factors_only:
        bundle["generators_full"] = [matrix_to_json(fm.exact_matrix(t), memo)
                                     for t in g.group.generators]
    return bundle

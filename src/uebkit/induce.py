"""Induced class functions and induced representations.

Everything here is desk scale: groups are fully enumerated, conjugacy
classes come from orbit enumeration, and the induction formula is
evaluated literally.  The payoff is the sparsity statement: a rep
induced from a subgroup of index n has block-monomial matrices, so at
least 1 - 1/n of every matrix is exactly zero.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from fractions import Fraction

from .cyclo import PhasedScalar
from .exactmat import ExactMatrix
from .groups import FiniteGroup, SubgroupView, transversal
from .nice import ProjectiveRep


def conjugacy_classes(G: FiniteGroup) -> list:
    """Classes as sorted tuples, ordered by their least member."""
    elems = sorted(G.elements())
    if len(elems) * len(elems) > 4_000_000:
        raise ValueError("group too large for orbit enumeration")
    seen = set()
    classes = []
    for g in elems:
        if g in seen:
            continue
        orbit = {G.compose(x, G.compose(g, G.inverse(x))) for x in elems}
        seen |= orbit
        classes.append(tuple(sorted(orbit)))
    return classes


@dataclass
class ClassFunction:
    group: FiniteGroup
    values: dict

    def __post_init__(self):
        missing = [g for g in self.group.elements() if g not in self.values]
        if missing:
            raise ValueError(f"no value for {len(missing)} elements")

    def value(self, g) -> PhasedScalar:
        return self.values[g]

    def is_class_function(self) -> bool:
        for cls in conjugacy_classes(self.group):
            v = self.values[cls[0]]
            if any(not (self.values[g] == v) for g in cls[1:]):
                return False
        return True


def class_function(group: FiniteGroup, fn) -> ClassFunction:
    cf = ClassFunction(group, {g: fn(g) for g in group.elements()})
    if not cf.is_class_function():
        raise ValueError("values are not constant on conjugacy classes")
    return cf


def character_rep(psi: ClassFunction, label: str = "") -> ProjectiveRep:
    """A linear character as a 1x1 matrix rep, multiplicativity-checked."""
    K = psi.group
    for a in K.elements():
        for b in K.elements():
            if not (psi.value(K.compose(a, b)) == psi.value(a) * psi.value(b)):
                raise ValueError("character is not multiplicative")
    return ProjectiveRep(K, 1, lambda k: ExactMatrix(1, 1, [psi.value(k)]),
                         label=label or "character")


def _subgroup_of(H: FiniteGroup, K: FiniteGroup) -> list:
    kelems = list(K.elements())
    if isinstance(K, SubgroupView) and K.parent is H:
        return kelems
    SubgroupView(H, kelems)      # closure check against H's operations
    return kelems


def induce_character(psi: ClassFunction, H: FiniteGroup) -> ClassFunction:
    """chi(x) = (1/|K|) sum over h in H of psi(h x h^{-1}), zero-extended."""
    kelems = _subgroup_of(H, psi.group)
    korder = len(kelems)
    vals = psi.values
    helems = list(H.elements())
    zero = PhasedScalar.zero(1)
    out = {}
    for cls in conjugacy_classes(H):
        x = cls[0]
        acc = zero
        for h in helems:
            u = H.compose(h, H.compose(x, H.inverse(h)))
            v = vals.get(u)
            if v is not None:
                acc = acc + v
        acc = acc * Fraction(1, korder)
        for g in cls:
            out[g] = acc
    return ClassFunction(H, out)


@dataclass
class InducedRep:
    """Induced from the subgroup K with left transversal t_1, ..., t_n.

    matrix(h) holds the block rho(u) at block (i, j) exactly when
    h t_j = t_i u with u in K; _coset sends each t_i u to that (i, u)."""
    parent: FiniteGroup
    subgroup: tuple
    transversal: tuple
    degree: int
    _rho: ProjectiveRep
    _cache: dict = field(default_factory=dict, repr=False)
    _coset: dict = field(init=False, repr=False)

    def __post_init__(self):
        G = self.parent
        self._coset = {G.compose(t, u): (i, u)
                       for i, t in enumerate(self.transversal)
                       for u in self.subgroup}
        # no element twice and n |K| = |H|: the cosets t_i K tile the parent
        if not len(self._coset) == self.index * len(self.subgroup) == G.order:
            raise ValueError("transversal does not tile the group")

    @property
    def index(self) -> int:
        return len(self.transversal)

    @property
    def dim(self) -> int:
        return self.index * self.degree

    def matrix(self, h) -> ExactMatrix:
        m = self._cache.get(h)
        if m is not None:
            return m
        G = self.parent
        deg = self.degree
        dim = self.index * deg
        zero = PhasedScalar.zero(1)
        ents = [zero] * (dim * dim)
        for j, tj in enumerate(self.transversal):
            i, u = self._coset[G.compose(h, tj)]
            blk = self._rho.matrix(u)
            s = blk.scale
            for r in range(deg):
                for c in range(deg):
                    e = blk.entries[r * deg + c]
                    if e.terms:
                        ents[(i * deg + r) * dim + j * deg + c] = \
                            e if s == 1 else e * s
        m = ExactMatrix(dim, dim, ents)
        self._cache[h] = m
        return m

    def character(self) -> ClassFunction:
        return ClassFunction(
            self.parent,
            {h: self.matrix(h).trace() for h in self.parent.elements()})

    def block_structure_ok(self) -> bool:
        """One nonzero block per block column and per block row, every
        parent element: h t_1, ..., h t_n lie in n different cosets."""
        G, coset, n = self.parent, self._coset, self.index
        return all(
            len({coset[G.compose(h, t)][0] for t in self.transversal}) == n
            for h in G.elements())


def induce_representation(psi_rep: ProjectiveRep, H: FiniteGroup) -> InducedRep:
    kelems = _subgroup_of(H, psi_rep.group)
    return InducedRep(H, tuple(kelems), tuple(transversal(H, kelems)),
                      psi_rep.dim, psi_rep)


def sparsity_check(ind: InducedRep) -> Fraction:
    """Minimum zero fraction over all matrices; block-monomial structure
    guarantees at least 1 - 1/index."""
    worst = None
    for h in ind.parent.elements():
        zf = ind.matrix(h).zero_fraction()
        if worst is None or zf < worst:
            worst = zf
    bound = 1 - Fraction(1, ind.index)
    if worst < bound:
        raise ArithmeticError(
            f"zero fraction {worst} below block bound {bound}")
    return worst

"""Finite groups as explicit composition rules on tuple elements.

Groups here are small enough to enumerate (or, for the big semidirect
products, to enumerate through a declared carrier), and elements are
hashable tuples so they can key dicts.  Nothing is ever represented up
to isomorphism: a group is its composition table rule.
"""

from __future__ import annotations

import itertools
from typing import Iterator, NamedTuple


class FiniteGroup:
    """Base: subclasses set identity, order, generators and implement
    compose, inverse and elements."""

    identity = None
    order = 0
    generators: tuple = ()

    def compose(self, a, b):
        raise NotImplementedError

    def inverse(self, a):
        raise NotImplementedError

    def elements(self) -> Iterator:
        raise NotImplementedError

    def label(self, g):
        """The element as reports name it; coded elements override this."""
        return g


def element_order(G: FiniteGroup, g) -> int:
    x = g
    m = 1
    while x != G.identity:
        x = G.compose(x, g)
        m += 1
        if m > G.order:
            raise ArithmeticError("element order exceeds group order")
    return m


def center(G: FiniteGroup) -> list:
    """Elements commuting with the generators (hence with everything,
    provided the declared generators generate).

    A direct product returns Z(A x B) = Z(A) x Z(B), built from the
    factors' centers in the same order as filtering its elements."""
    if isinstance(G, DirectProduct):
        return list(itertools.product(*(center(f) for f in G.factors)))
    gens = list(G.generators) or list(G.elements())
    return [g for g in G.elements()
            if all(G.compose(g, h) == G.compose(h, g) for h in gens)]


def transversal(G: FiniteGroup, subgroup: list) -> list:
    """One representative per left coset gK of a subgroup K.

    Representatives are the lexicographically least coset members,
    except that the identity represents its own coset; the identity
    comes first and the rest are sorted.
    """
    keys = set()
    for g in G.elements():
        keys.add(min(G.compose(g, z) for z in subgroup))
    ekey = min(G.compose(G.identity, z) for z in subgroup)
    out = [G.identity]
    out.extend(k for k in sorted(keys) if k != ekey)
    return out


MAX_AUTOMORPHISM_PAIRS = 4_500_000


def generated_order(G: FiniteGroup, gens) -> int:
    """The order of the subgroup gens generate: {e} closed under right
    multiplication by gens, which is that subgroup as G is finite."""
    comp = G.compose
    reached = {G.identity}
    frontier = [G.identity]
    while frontier:
        grown = []
        for g in frontier:
            for s in gens:
                gs = comp(g, s)
                if gs not in reached:
                    reached.add(gs)
                    grown.append(gs)
        frontier = grown
    return len(reached)


def is_automorphism(G: FiniteGroup, f) -> bool:
    """Exact automorphism check on the declared generators S.

    f must be a bijection with f(e) = e and f(g s) = f(g) f(s) for every
    g in G and s in S.  That covers every pair, by induction on the word
    length of h: f(g e) = f(g) f(e) because f(e) = e, and if
    f(g h) = f(g) f(h) for all g, then
    f(g h s) = f(g h) f(s) = f(g) f(h) f(s) = f(g) f(h s).  Every h is
    such a word provided S generates G, which generated_order checks
    exactly; a smaller closure raises ValueError.  Groups declaring no
    generators use S = G, the full pair sweep.  Costs |G| |S|
    compositions for the pairs and as many for the closure, which
    MAX_AUTOMORPHISM_PAIRS bounds."""
    gens = list(G.generators)
    if G.order * (len(gens) or G.order) > MAX_AUTOMORPHISM_PAIRS:
        raise ValueError("group too large for the generator check")
    if gens and generated_order(G, gens) != G.order:
        raise ValueError("declared generators do not generate the group")
    elems = list(G.elements())
    gens = gens or elems
    images = {g: f(g) for g in elems}
    if set(images.values()) != set(elems) or images[G.identity] != G.identity:
        return False
    comp = G.compose
    return all(images[comp(g, s)] == comp(images[g], images[s])
               for g in elems for s in gens)


# ---------------------------------------------------------------------------
# cyclic groups


class CyclicGroup(FiniteGroup):
    def __init__(self, d: int):
        if d < 1:
            raise ValueError("order must be positive")
        self.d = d
        self.identity = 0
        self.order = d
        self.generators = (1,) if d > 1 else ()

    def compose(self, a, b):
        return (a + b) % self.d

    def inverse(self, a):
        return (-a) % self.d

    def elements(self):
        return iter(range(self.d))


# ---------------------------------------------------------------------------
# Heisenberg groups mod d


class HeisenbergElement(NamedTuple):
    d: int
    x: int
    y: int
    z: int


class HeisenbergGroup(FiniteGroup):
    """Triples mod d with (x,y,z)(x',y',z') = (x+x', y+y', z+z'+x*y')."""

    def __init__(self, d: int):
        if d < 2:
            raise ValueError("modulus must be at least 2")
        self.d = d
        self.identity = HeisenbergElement(d, 0, 0, 0)
        self.order = d ** 3
        self.generators = (HeisenbergElement(d, 1, 0, 0),
                           HeisenbergElement(d, 0, 1, 0))

    def compose(self, a: HeisenbergElement, b: HeisenbergElement):
        d = self.d
        if a.d != d or b.d != d:
            raise ValueError("modulus mismatch")
        return HeisenbergElement(d, (a.x + b.x) % d, (a.y + b.y) % d,
                                 (a.z + b.z + a.x * b.y) % d)

    def inverse(self, a: HeisenbergElement):
        d = self.d
        return HeisenbergElement(d, -a.x % d, -a.y % d, (-a.z + a.x * a.y) % d)

    def elements(self):
        d = self.d
        for x in range(d):
            for y in range(d):
                for z in range(d):
                    yield HeisenbergElement(d, x, y, z)


def _require_odd_prime(d: int):
    if d < 3 or d % 2 == 0:
        raise ValueError(f"modulus {d} is not an odd prime")
    for q in range(3, int(d ** 0.5) + 1, 2):
        if d % q == 0:
            raise ValueError(f"modulus {d} is not an odd prime")


def alpha_aut(g: HeisenbergElement) -> HeisenbergElement:
    """(x,y,z) -> (-y, x, z-xy), an automorphism for odd prime modulus."""
    _require_odd_prime(g.d)
    d = g.d
    return HeisenbergElement(d, -g.y % d, g.x, (g.z - g.x * g.y) % d)


def beta_aut(g: HeisenbergElement) -> HeisenbergElement:
    """(x,y,z) -> (x, x+y, z + ((d+1)/2) x^2) for odd prime modulus."""
    _require_odd_prime(g.d)
    d = g.d
    m = (d + 1) // 2
    return HeisenbergElement(d, g.x, (g.x + g.y) % d, (g.z + m * g.x * g.x) % d)


# ---------------------------------------------------------------------------
# SL(2, F_p)


class SL2Element(NamedTuple):
    p: int
    a: int
    b: int
    c: int
    d: int


class SL2Group(FiniteGroup):
    def __init__(self, p: int):
        _require_odd_prime(p)
        self.p = p
        self.identity = SL2Element(p, 1, 0, 0, 1)
        self.order = p * (p * p - 1)
        self.generators = (sl2_alpha(p), sl2_beta(p))

    def compose(self, m: SL2Element, n: SL2Element):
        p = self.p
        return SL2Element(p,
                          (m.a * n.a + m.b * n.c) % p,
                          (m.a * n.b + m.b * n.d) % p,
                          (m.c * n.a + m.d * n.c) % p,
                          (m.c * n.b + m.d * n.d) % p)

    def inverse(self, m: SL2Element):
        p = self.p
        return SL2Element(p, m.d, -m.b % p, -m.c % p, m.a)

    def elements(self):
        p = self.p
        return (SL2Element(p, a, b, c, d)
                for a, b, c, d in itertools.product(range(p), repeat=4)
                if (a * d - b * c) % p == 1)


def sl2_alpha(p: int) -> SL2Element:
    return SL2Element(p, 0, p - 1, 1, 0)


def sl2_beta(p: int) -> SL2Element:
    return SL2Element(p, 1, 0, 1, 1)


def sl2_elements_of_order(p: int, r: int) -> list[SL2Element]:
    G = SL2Group(p)
    return [m for m in G.elements() if element_order(G, m) == r]


def acts_irreducibly(m: SL2Element) -> bool:
    """No eigenvector over F_p: x^2 - tr(m) x + 1 has no root mod p."""
    p = m.p
    t = (m.a + m.d) % p
    return all((x * x - t * x + 1) % p for x in range(p))


# ---------------------------------------------------------------------------
# products


class DirectProduct(FiniteGroup):
    def __init__(self, *factors: FiniteGroup):
        self.factors = factors
        self.identity = tuple(f.identity for f in factors)
        self.order = 1
        for f in factors:
            self.order *= f.order
        gens = []
        for i, f in enumerate(factors):
            for g in f.generators:
                e = list(self.identity)
                e[i] = g
                gens.append(tuple(e))
        self.generators = tuple(gens)

    def compose(self, a, b):
        return tuple([f.compose(x, y) for f, x, y in zip(self.factors, a, b)])

    def inverse(self, a):
        return tuple([f.inverse(x) for f, x in zip(self.factors, a)])

    def elements(self):
        return itertools.product(*(f.elements() for f in self.factors))


class SemidirectProduct(FiniteGroup):
    """Pairs (n, h) with (n1,h1)(n2,h2) = (n1 * act(h1, n2), h1 h2).

    act(h, n) must be a homomorphism H -> Aut(N).  Nothing here checks
    it; callers prove it from how act is built (see build_g165).
    """

    def __init__(self, N: FiniteGroup, H: FiniteGroup, act):
        self.N = N
        self.H = H
        self.act = act
        self.identity = (N.identity, H.identity)
        self.order = N.order * H.order
        self.generators = tuple((n, H.identity) for n in N.generators) + \
            tuple((N.identity, h) for h in H.generators)

    def compose(self, a, b):
        return (self.N.compose(a[0], self.act(a[1], b[0])),
                self.H.compose(a[1], b[1]))

    def inverse(self, a):
        hi = self.H.inverse(a[1])
        return (self.act(hi, self.N.inverse(a[0])), hi)

    def elements(self):
        for n in self.N.elements():
            for h in self.H.elements():
                yield (n, h)

    def center_structural(self):
        """Z(N) x Z(H) when the action fixes Z(N) pointwise and Z(H) acts
        trivially; both premises checked exactly.  None if they fail."""
        zn = center(self.N)
        zh = center(self.H)
        for h in self.H.generators:
            for z in zn:
                if self.act(h, z) != z:
                    return None
        for z in zh:
            for n in self.N.generators:
                if self.act(z, n) != n:
                    return None
        return [(a, b) for a in zn for b in zh]


class SubgroupView(FiniteGroup):
    """A subset of a parent group, closure-checked, with inherited ops."""

    def __init__(self, parent: FiniteGroup, elements):
        self.parent = parent
        self._elements = list(elements)
        self.identity = parent.identity
        self.order = len(self._elements)
        self.generators = ()
        eset = set(self._elements)
        if parent.identity not in eset:
            raise ValueError("subgroup must contain the identity")
        for g in self._elements:
            if parent.inverse(g) not in eset:
                raise ValueError(f"subgroup not closed under inverse at {g}")
            for h in self._elements:
                if parent.compose(g, h) not in eset:
                    raise ValueError("subgroup not closed under composition")

    def compose(self, a, b):
        return self.parent.compose(a, b)

    def inverse(self, a):
        return self.parent.inverse(a)

    def elements(self):
        return iter(self._elements)

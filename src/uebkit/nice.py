"""Group-indexed unitary bases: projective representations and the
niceness conditions.

A projective representation here is a map from an index group into
unitary matrices with rho(1) = I, tr rho(g) = 0 off the identity, and
rho(g) rho(h) = omega(g, h) rho(gh) for unit-modulus factors omega.
Verifying those three conditions certifies that the image, one matrix
per group element, is a unitary error basis, which the definition-level
check in the ueb module confirms independently at small dimension.
"""

from __future__ import annotations

import random
from dataclasses import dataclass
from itertools import chain
from math import lcm
from operator import itemgetter
from typing import Callable

from .cyclo import Cyclotomic, PhasedScalar, roots_of_unity
from .exactmat import ExactMatrix
from .groups import (CyclicGroup, DirectProduct, FiniteGroup, HeisenbergGroup,
                     generated_order)


def weyl_matrix(d: int, x: int, y: int, z: int = 0) -> ExactMatrix:
    """zeta_d^z Z^y X^x: column k holds zeta_d^(z + y(k - x)) in row k - x.

    Entries are order-1 ones when y = z = 0 mod d and order-d powers of
    zeta_d otherwise, as the products of shift and clock powers give."""
    rows = [(k - x) % d for k in range(d)]
    if y % d == 0 and z % d == 0:
        return ExactMatrix.from_permutation(rows)
    return ExactMatrix.monomial(rows, [PhasedScalar.zeta(d, z + y * r)
                                       for r in rows])


def shift_matrix(d: int) -> ExactMatrix:
    """X with X|x> = |x-1 mod d>."""
    return weyl_matrix(d, 1, 0)


def clock_matrix(d: int) -> ExactMatrix:
    """Z = diag(1, zeta_d, ..., zeta_d^(d-1))."""
    return weyl_matrix(d, 0, 1)


def quadratic_diag(d: int) -> ExactMatrix:
    """diag(zeta_d^(i(i-1)/2)); conjugation by it maps X to ZX."""
    return ExactMatrix.diagonal([Cyclotomic.zeta(d, i * (i - 1) // 2)
                                 for i in range(d)])


# the largest |G|^2 swept pair by pair: verify_nice's "all" mode and
# cocycle_table refuse larger index groups
MAX_FULL_PAIRS = 250_000


class CocycleError(ValueError):
    pass


class ProjectiveRep:
    """A cached map from group elements to unitary matrices."""

    def __init__(self, group: FiniteGroup, dim: int, rho: Callable, label: str = ""):
        self.group = group
        self.dim = dim
        self.label = label
        self._rho = rho
        self._cache: dict = {}

    def matrix(self, g):
        m = self._cache.get(g)
        if m is None:
            m = self._rho(g)
            self._cache[g] = m
        return m

    def members(self) -> list:
        return [self.matrix(g) for g in self.group.elements()]

    def labels(self) -> list:
        return list(self.group.elements())


def pauli_rep(d: int) -> ProjectiveRep:
    """(i, j) -> X^i Z^j over the index group Z_d x Z_d."""
    if d < 1:
        raise ValueError("dimension must be positive")
    # X^i Z^j = zeta^(ij) Z^j X^i
    table = {(i, j): weyl_matrix(d, i, j, i * j)
             for i in range(d) for j in range(d)}
    group = DirectProduct(CyclicGroup(d), CyclicGroup(d))
    return ProjectiveRep(group, d, table.__getitem__, label=f"pauli:{d}")


def heisenberg_rep(d: int) -> ProjectiveRep:
    """(x, y, z) -> zeta^z Z^y X^x, a genuine representation of the
    Heisenberg group mod d."""
    return ProjectiveRep(HeisenbergGroup(d), d,
                         lambda g: weyl_matrix(d, g.x, g.y, g.z),
                         label=f"heisenberg:{d}")


def extract_cocycle(rep: ProjectiveRep, g, h, phase=None) -> PhasedScalar:
    """omega(g, h) with rho(g) rho(h) = omega(g, h) rho(gh); raises
    CocycleError when the product is not a unit multiple of rho(gh).
    Messages name elements by G.label, as verify_nice's failures do.
    Given phase = _phase_form(...), a pair the form accepts forms no
    product of members; one it rejects is re-checked on the product, and
    ArithmeticError is raised if the product accepts it."""
    G = rep.group
    gh = G.compose(g, h)
    if phase is not None:
        forms, shifted, zetas = phase
        tg, _, pg, qg = forms[g]
        th, gather, ph, qh = forms[h]
        tgh, _, pgh, qgh = forms[gh]
        c = (tg[th[0]] - tgh[0]) % len(zetas)
        if pg * ph * qgh == pgh * qg * qh and gather(tg) == shifted[c](tgh):
            return zetas[c]
    c = (rep.matrix(g) @ rep.matrix(h)).equal_up_to_phase(rep.matrix(gh))
    if c is None:
        raise CocycleError(f"rho({G.label(g)}) rho({G.label(h)}) is not a unit "
                           f"multiple of the composed member")
    if phase is not None:
        raise ArithmeticError(f"the pair form rejects rho({G.label(g)}) "
                              f"rho({G.label(h)}), which the dense product accepts")
    return c


def _phase_form(rep: ProjectiveRep, elems: list):
    """(forms, shifted, zetas) when every member is monomial over roots
    of unity, else None.

    Such a member is a d x d ExactMatrix, symbol-free, one nonzero entry
    per row and column, each a root of unity: +-zeta_n^k in Q(zeta_n),
    so zeta_N^j for N = lcm(2, entry orders), as -1 = zeta_N^(N/2).
    Then rho(g) = a A, A = sum_k zeta_N^e[k] |sigma[k]><k|, with
    a = |scale| = p/q and the sign of the scale folded into e; zetas[j]
    is zeta_N^j, and forms[g] is (table, gather, p, q).

    table codes A on the d N states zeta^x |j> as ints j N + x, one to
    one as zeta^x = zeta^y iff x = y mod N: table[j N + x] = sigma[j] N
    + (x + e[j]) mod N, pointing into one shared list(range(d N)), so no
    int is made.  gather = itemgetter(*table[::N]) reads a table at the
    codes of the columns A|k>, shifted[c] at the states zeta^c |k> (for
    d = 1 both give the one code, not a 1-tuple, and still compare).

    The pair check of extract_cocycle is exact.  gather_h(table_g) codes
    the columns of A_g A_h and shifted[c](table_gh) those of zeta^c A_gh,
    so rho(g) rho(h) = w rho(gh) for some w (nonzero, as the product is)
    exactly when the two are equal for some c, which column 0 fixes as
    table_g[table_h[0]] - table_gh[0] mod N; then w = (a_g a_h / a_gh)
    zeta^c, of unit modulus exactly when a_g a_h = a_gh.  Unitarity:
    a A has unit-modulus entries in distinct rows, so (a A)(a A)^dagger
    = a^2 I, unitary exactly when a = p/q = 1.  Every test compares
    ints, so nothing is rounded.
    """
    data, n = [], 2
    for g in elems:
        m = rep.matrix(g)
        if not isinstance(m, ExactMatrix):
            return None
        mono = m.monomial_data()
        if mono is None or len(mono[0]) != rep.dim:
            return None
        sigma, values = mono
        if not all(v.is_symbol_free() for v in values):
            return None
        n = lcm(n, *(v.order for v in values))
        data.append((g, sigma, values, m.scale))
    zetas, power = roots_of_unity(n)
    half = n // 2
    states = list(range(rep.dim * n))
    forms = {}
    for g, sigma, values, scale in data:
        exps = [power.get(v.terms[()].promote(n).key()) for v in values]
        if None in exps:
            return None
        if scale < 0:
            exps = [(e + half) % n for e in exps]
        table = tuple(chain.from_iterable(
            states[s * n + e:(s + 1) * n] + states[s * n:s * n + e]
            for s, e in zip(sigma, exps)))
        forms[g] = (table, itemgetter(*table[::n]), abs(scale.numerator),
                    scale.denominator)
    return forms, [itemgetter(*states[c::n]) for c in range(n)], zetas


def cocycle_table(rep: ProjectiveRep) -> dict:
    """omega(g, h) for every pair, with rho(g) rho(h) = omega(g, h) rho(gh);
    raises CocycleError on a pair that is not a unit multiple of the
    composed member, or on a zero member.

    The cocycle identity omega(g, h) omega(gh, k) = omega(h, k) omega(g, hk)
    then holds for every triple, so none is sampled.  Bracket the product
    rho(g) rho(h) rho(k) both ways:
    (rho(g) rho(h)) rho(k) = omega(g, h) rho(gh) rho(k)
    = omega(g, h) omega(gh, k) rho((gh)k), and
    rho(g) (rho(h) rho(k)) = omega(h, k) rho(g) rho(hk)
    = omega(h, k) omega(g, hk) rho(g(hk)).  Matrix products and the
    index law are associative, so both scalars multiply the one matrix
    rho(ghk), which is nonzero (checked here on every member), and they
    are equal."""
    elems = list(rep.group.elements())
    _, pairs = _pair_source(rep.group, elems, "all", None, 0)
    for g in elems:
        if not rep.matrix(g).nonzero_count():
            raise CocycleError(f"rho({rep.group.label(g)}) is the zero matrix")

    # pairs as in verify_nice: the phase route when every member is
    # monomial over roots of unity, else dense products; extract_cocycle
    # re-checks a phase rejection densely, so a bad pair raises the same
    # CocycleError on either route
    phase = _phase_form(rep, elems)
    return {(g, h): extract_cocycle(rep, g, h, phase) for g, h in pairs}


@dataclass
class NicenessReport:
    label: str
    dim: int
    group_order: int
    identity_ok: bool
    unitary_ok: bool
    trace_ok: bool
    cocycle_ok: bool
    cocycle_exhaustive: bool
    pair_mode: str
    pair_route: str
    pairs_checked: int
    elements_checked: int
    seed: int | None = None
    failures: tuple = ()

    @property
    def ok(self) -> bool:
        return (self.identity_ok and self.unitary_ok and self.trace_ok
                and self.cocycle_ok)

    def summary(self) -> dict:
        return {**vars(self), "ok": self.ok,
                "failures": [str(f) for f in self.failures[:8]]}


def verify_nice(rep: ProjectiveRep, pair_mode: str = "all", seed: int | None = None,
                sample_size: int = 10_000) -> NicenessReport:
    """Check the three defining conditions with zero tolerance.

    pair_mode "all" sweeps every (g, h); "sampled" sweeps generator
    pairs in both orders plus sample_size seeded random pairs.  The
    identity, unitarity and trace conditions are always swept in full.
    pair_route "phase": every member is monomial over roots of unity,
    unitary by its scale and each pair checked on state tables
    (_phase_form), re-checked densely if rejected; "matrix": member products,
    where a member's column_sweep (TensorTriple) checks the generator
    columns whole, and each pair it rejects must fail on the product.
    Failures name elements by G.label.  cocycle_exhaustive: every pair
    passes, as "all" checks, or as the sampled pairs (g, s), s a declared
    generator, prove once rho(e) = I and the generators generate G: by
    induction on h, rho(g h s) ~ rho(g h) rho(s) ~ rho(g) rho(h) rho(s)
    ~ rho(g) rho(h s), ~ meaning up to a unit phase.
    """
    G = rep.group
    elems = list(G.elements())
    failures = []
    # a pair sweep too large for "all" is refused before any member is read
    columns, pairs = _pair_source(G, elems, pair_mode, seed, sample_size)

    m1 = rep.matrix(G.identity)
    identity_ok = m1.is_identity()
    if not identity_ok:
        failures.append(("identity", G.label(G.identity)))

    phase = _phase_form(rep, elems)  # where |scale| = 1 is unitarity
    unitary_ok = True
    trace_ok = True
    for g in elems:
        m = rep.matrix(g)
        if (phase[0][g][2:] != (1, 1) if phase
                else m.is_scaled_unitary() != 1):
            unitary_ok = False
            failures.append(("unitary", G.label(g)))
        if g != G.identity and not m.trace().is_zero():
            trace_ok = False
            failures.append(("trace", G.label(g)))
    if not rep.matrix(G.identity).trace() == rep.dim:
        trace_ok = False
        failures.append(("trace", G.label(G.identity)))

    pair_route = "matrix" if phase is None else "phase"
    # (k, (g, h)): the pairs to check, k counting the stream up to (g, h);
    # a column_sweep (TensorTriple) leaves only the column pairs it rejects
    sweep = phase is None and getattr(m1, "column_sweep", None)
    n = len(elems)
    swept = len(columns) * n if sweep else 0
    rows = sweep(rep, elems, columns) if sweep else (range(n) for _ in columns)
    stream = chain(((c * n + i + 1, (elems[i], s) if right else (s, elems[i]))
                    for c, ((s, right), row) in enumerate(zip(columns, rows))
                    for i in row), enumerate(pairs, len(columns) * n + 1))
    cocycle_ok, pairs_checked = True, 0
    for pairs_checked, (g, h) in stream:
        try:
            extract_cocycle(rep, g, h, phase)
        except CocycleError:
            cocycle_ok = False
            failures.append(("cocycle", G.label(g), G.label(h)))
            if len(failures) > 32:
                break
            continue
        if pairs_checked <= swept:
            raise ArithmeticError(f"the sweep rejects rho({G.label(g)}) "
                                  f"rho({G.label(h)}), which the dense product accepts")
    else:  # the last swept pairs may all have been accepted
        pairs_checked = max(pairs_checked, swept)
    exhaustive = cocycle_ok and (pair_mode == "all" or (
        identity_ok and generated_order(G, G.generators) == G.order))

    return NicenessReport(
        label=rep.label, dim=rep.dim, group_order=G.order,
        identity_ok=identity_ok, unitary_ok=unitary_ok, trace_ok=trace_ok,
        cocycle_ok=cocycle_ok, cocycle_exhaustive=exhaustive,
        pair_mode=pair_mode, pair_route=pair_route,
        pairs_checked=pairs_checked, elements_checked=len(elems), seed=seed,
        failures=tuple(failures))


def _pair_source(G, elems, pair_mode, seed, sample_size):
    """(columns, pairs): the generator columns (s, right), of the pairs
    (h, s) if right else (s, h), h in elems, which open the stream; then
    an iterator over the rest, drawing sampled pairs as it goes."""
    if pair_mode == "all":
        if len(elems) ** 2 > MAX_FULL_PAIRS:
            raise ValueError(f"{len(elems) ** 2} pairs are too many to sweep")
        return [], ((g, h) for g in elems for h in elems)
    if pair_mode != "sampled":
        raise ValueError(f"unknown pair_mode {pair_mode!r}")
    rng = random.Random(seed)
    return ([(s, right) for right in (False, True) for s in G.generators],
            ((rng.choice(elems), rng.choice(elems))
             for _ in range(sample_size)))

import cmath
import functools
import hashlib
import itertools
import random
from fractions import Fraction
from types import SimpleNamespace

import numpy as np
import pytest

from uebkit import cli, counterexample165
from uebkit.counterexample165 import (
    ConjugatorError,
    FactorMap,
    Quotient165,
    TensorTriple,
    _PRIMES,
    _check_law,
    _exponent_action,
    build_conjugators,
    conjugation_automorphism,
    export_bundle,
    verify_counterexample,
    weyl_decompose,
)
from uebkit.cyclo import Cyclotomic, PhasedScalar, roots_of_unity
from uebkit.exactmat import ExactMatrix, matrix_to_json, monomiality_report
from uebkit.fastcyc import CycMatrix, from_exact
from uebkit.groups import (
    DirectProduct,
    HeisenbergElement,
    HeisenbergGroup,
    SL2Element,
    SL2Group,
    alpha_aut,
    beta_aut,
    element_order,
    sl2_alpha,
    sl2_beta,
)
from uebkit.nice import (
    CocycleError,
    ProjectiveRep,
    clock_matrix,
    extract_cocycle,
    shift_matrix,
    verify_nice,
    weyl_matrix,
)
from test_exactmat import _chain_tensor


# ---------------------------------------------------------------------------
# conjugators


@pytest.fixture(scope="module")
def alpha_beta(built):
    """p -> (alpha, beta), the lifts of conjugation by F and by B with the
    dagger on the left, as conjugation by F^dagger and B^dagger;
    build_conjugators reads their exponent actions off its identities
    and lifts neither."""
    return {c.p: tuple(conjugation_automorphism(c.group, u.dagger())
                       for u in (c.F, c.B))
            for c in (built.conj5, built.conj11)}


def test_conjugator_facts_p5(built, alpha_beta):
    c = built.conj5
    assert c.r_cubed.is_one()
    assert c.action == SL2Element(5, 4, 4, 1, 0)
    assert c.action_order == 3
    alpha, beta = alpha_beta[5]
    assert _exponent_action(alpha, 5) == sl2_alpha(5)
    assert _exponent_action(beta, 5) == sl2_beta(5)


def test_conjugator_facts_p11(built):
    c = built.conj11
    want = PhasedScalar.of(Cyclotomic(11, {2: Fraction(-1)}))
    assert c.r_cubed == want
    assert c.r_cubed.root_of_unity_order() == 22
    assert c.action == SL2Element(11, 10, 10, 1, 0)
    assert c.action_order == 3


def test_alpha_beta_lifts_match_abstract_maps(built, alpha_beta):
    for conj in (built.conj5, built.conj11):
        alpha, beta = alpha_beta[conj.p]
        for g in conj.group.elements():
            assert alpha[g] == alpha_aut(g)
            assert beta[g] == beta_aut(g)


def test_lifts_agree_with_conjugation_on_every_element(built, alpha_beta):
    # rho(f(g)) == U rho(g) U^dagger / s for every g and each lift, dense
    # exact at p = 5 and packed at p = 11; conjugation_automorphism proves
    # it from the generators, this checks the whole group
    for conj, packed in ((built.conj5, False), (built.conj11, True)):
        p = conj.p
        rho = {}
        for g in conj.group.elements():
            m = weyl_matrix(p, g.x, g.y, g.z)
            rho[g] = from_exact(m, p) if packed else m
        alpha, beta = alpha_beta[p]
        for f, u, forward in ((conj.gamma, conj.R, True),
                              (alpha, conj.F, False),
                              (beta, conj.B, False)):
            s = u.is_scaled_unitary()
            if packed:
                u = from_exact(u, p)
            left, right = (u, u.dagger()) if forward else (u.dagger(), u)
            for g, m in rho.items():
                lhs = left @ m @ right
                if packed:
                    lhs = CycMatrix(p, lhs.a, lhs.scale / s)
                else:
                    lhs = lhs.scalar_mul(Fraction(1, s))
                assert lhs == rho[f[g]], (p, g)


def test_realized_action_is_alpha_beta_not_a_quartic(built):
    # the twist realizes the product alpha.beta; neither quartic word
    # in alpha and beta equals it
    for conj in (built.conj5, built.conj11):
        sl2 = SL2Group(conj.p)
        a, b = sl2_alpha(conj.p), sl2_beta(conj.p)
        assert conj.action == sl2.compose(a, b)
        q1 = sl2.compose(sl2.compose(sl2.compose(b, a), b), a)
        q2 = sl2.compose(sl2.compose(sl2.compose(a, b), a), b)
        assert conj.action != q1
        assert conj.action != q2


def test_alternate_exponent_also_builds_at_p5():
    # the twist word at p=5 gives an order-3 action for other diagonal
    # exponents as well; the postconditions decide, not the exponent
    c = build_conjugators(5, 1)
    assert c.action_order == 3


def test_conjugation_rejects_non_normalizer():
    # a transposition is unitary but does not normalize the Weyl group
    swap = ExactMatrix.from_permutation([1, 0, 2, 3, 4])
    with pytest.raises(ConjugatorError):
        conjugation_automorphism(HeisenbergGroup(5), swap)


def test_weyl_decompose_roundtrip():
    p = 5
    x, z = shift_matrix(p), clock_matrix(p)
    w = PhasedScalar.zeta(p)
    for a, b, k in ((0, 0, 0), (1, 0, 2), (3, 4, 1), (2, 2, 4)):
        m = ((z ** b) @ (x ** a)).scalar_mul(w ** k)
        dec = weyl_decompose(m, p)
        assert dec is not None
        da, db, phase = dec
        assert (da, db) == (a, b)
        assert phase == w ** k


def test_weyl_decompose_rejects_dense_and_zero():
    from uebkit.combinat import fourier_hadamard
    assert weyl_decompose(fourier_hadamard(5), 5) is None
    assert weyl_decompose(ExactMatrix.zeros(5, 5), 5) is None
    # a multiple of Z^b X^a by a phase that is not of unit modulus
    m = (clock_matrix(5) ** 2) @ (shift_matrix(5) ** 3)
    assert weyl_decompose(m.scalar_mul(2), 5) is None
    assert weyl_decompose(m.scalar_mul(PhasedScalar.of(2)), 5) is None


# ---------------------------------------------------------------------------
# tensor triples


_ID = (0, 0, 0)     # the identity keys
_R11 = (0, 0, 1)    # I (x) I (x) R11: 11-slot key 1, W(0, 0) R


def _key(p, x, y, k=0):
    """The int key n (p x + y) + k of Z^y X^x R^k in the p-slot pool,
    n = 3 twist powers in the 5- and 11-slots, 1 in the 3-slot."""
    return (1 if p == 3 else 3) * (p * x + y) + k


def test_triple_identity_needs_cancelling_phases(built):
    fm = built.factors
    r = TensorTriple(fm, _R11)
    cubed = PhasedScalar.of(Cyclotomic(11, {2: Fraction(-1)}))
    assert TensorTriple(fm, _ID).is_identity()
    t = r @ r @ r
    # R11^3 = -zeta_11^2 = zeta_330^(165 + 60)
    assert t.keys == _ID and t.j == 225
    assert t.equal_up_to_phase(TensorTriple(fm, _ID)) == cubed
    # -zeta_11^2 carries a sign, which no central exponent cancels
    assert not any((t @ TensorTriple(fm, _ID, 2 * z)).is_identity()
                   for z in range(165))
    # its square zeta_11^4 = zeta_165^60 is cancelled by z = 105 only
    assert [z for z in range(165)
            if (t @ t @ TensorTriple(fm, _ID, 2 * z)).is_identity()] == [105]


def test_slot_signs_cancel_across_slots():
    # S (x) S (x) I squares to (-I) (x) (-I) (x) I, the identity, and
    # S (x) I (x) I squares to (-I) (x) I (x) I, which is not.  No pool
    # entry squares to -I outside the 11-slot (R5^3 = I, and Z, X give
    # only powers of zeta_p), so a stub slot rule supplies S with
    # S S = zeta_330^165 I in the 3- and 5-slots
    e = 0
    table = {"S": {"S": (e, 165), e: ("S", 0)}, e: {"S": ("S", 0), e: (e, 0)}}

    def mul(p, a, b):
        if p == 11:
            assert (a, b) == (e, e), f"slot 11 multiplied {a} by {b}"
        return table[a][b]

    stub = SimpleNamespace(_mul=mul)
    both = TensorTriple(stub, ("S", "S", _ID[2]))
    one = TensorTriple(stub, ("S", _ID[1], _ID[2]))
    assert (both @ both).is_identity()
    assert not any((one @ one @ TensorTriple(stub, _ID, 2 * z)).is_identity()
                   for z in range(165))
    assert not (both @ both @ TensorTriple(stub, _ID, 2)).is_identity()


def _counting_products(monkeypatch):
    """A list that records every packed and every dense matrix product."""
    calls = []
    for cls in (CycMatrix, ExactMatrix):
        matmul = cls.__matmul__
        monkeypatch.setattr(cls, "__matmul__",
                            lambda a, b, f=matmul: calls.append(b) or f(a, b))
    return calls


def test_slot_phase_multiplies_no_matrices(built, monkeypatch):
    # products and comparisons of triples read keys and exponents alone:
    # no slot is multiplied out, packed or dense
    fm = built.factors
    calls = _counting_products(monkeypatch)
    r = TensorTriple(fm, _R11)
    x3 = TensorTriple(fm, (3, 0, 0))     # 3-slot key (1, 0)
    z3 = TensorTriple(fm, (1, 0, 0))     # 3-slot key (0, 1)
    assert x3.equal_up_to_phase(z3) is None
    assert r.equal_up_to_phase(TensorTriple(fm, (0, 0, 2))) is None
    assert (r @ r).equal_up_to_phase(r) is None
    # R11^3 = -zeta_11^2 = zeta_330^(165 + 60)
    assert (r @ r @ r).equal_up_to_phase(TensorTriple(fm, _ID)) == \
        fm.zetas[225]
    assert calls == []


@functools.cache
def _packed_pool(fm, p):
    """The p-slot pool packed, by int key, once per FactorMap and prime:
    the FactorMap holds its pools exact only."""
    return [from_exact(m, p) for m in fm.pool[p]]


def _packed(fm, p, word):
    """The packed product of a word of p-slot pool keys."""
    pool = _packed_pool(fm, p)
    m = pool[word[0]]
    for key in word[1:]:
        m = m @ pool[key]
    return m


def _folded(fm, p, word):
    """(key, j) with the product of the word == zeta_330^j pool[key],
    by _mul over the word."""
    key, j = word[0], 0
    for b in word[1:]:
        key, jb = fm._mul(p, key, b)
        j += jb
    return key, j % 330


def _packed_disagreements(fm, p, words):
    """The words whose folded (key, j) the packed route refutes: the
    multiplied-out word must equal zeta_330^j times pool[key]."""
    out = []
    for w in words:
        key, j = _folded(fm, p, w)
        c = _packed(fm, p, w).equal_up_to_phase(_packed_pool(fm, p)[key])
        if c is None or fm._power.get(c.promote(330).key()) != j:
            out.append(w)
    return out


def _long_words(fm, seed=11, n=1_000):
    """n seeded 11-slot words of 2 to 7 keys."""
    rng = random.Random(seed)
    keys = range(len(fm.pool[11]))
    return [tuple(rng.choice(keys) for _ in range(rng.randint(2, 7)))
            for _ in range(n)]


def test_normal_form_matches_packed_products(built):
    fm = built.factors
    two_key = {p: [(a, b) for a in range(len(fm.pool[p]))
                   for b in range(len(fm.pool[p]))] for p in (3, 5)}
    assert sum(map(len, two_key.values())) == 5_706
    for p, words in two_key.items():
        assert _packed_disagreements(fm, p, words) == []
    # R11^3 = -zeta_11^2 = zeta_330^225 enters each time k reaches 3
    assert fm._wrap[11] == 225
    # the phases are cyclo's table at conductor 330, not a copy
    zetas, log = roots_of_unity(330)
    assert fm.zetas is zetas and fm._power is log
    words = _long_words(fm)
    assert sum(sum(k % 3 for k in w) >= 3 for w in words) > 500
    assert _packed_disagreements(fm, 11, words) == []


def test_untwisted_slot_rule_is_the_heisenberg_law(built):
    # the 3-slot takes the twisted slots' rule with one twist power and an
    # identity table; the Heisenberg law it replaced, written out, is the
    # oracle on all 81 pairs of 3-slot keys
    fm = built.factors
    assert fm._gamma[3] == [[(x, y, 0) for x in range(3) for y in range(3)]]
    for a, b in itertools.product(range(9), repeat=2):
        (x, y), (u, v) = divmod(a, 3), divmod(b, 3)
        assert fm._mul(3, a, b) == ((x + u) % 3 * 3 + (y + v) % 3,
                                    110 * x * v % 330), (a, b)


def test_slot_law_is_associative(built):
    # (a b) c and a (b c) name the same key and phase, wraps of R^3
    # included; identity keys take both pass-through branches
    fm = built.factors
    rng = random.Random(5)
    for p in (3, 5, 11):
        keys = range(len(fm.pool[p]))
        e = keys[0]
        for _ in range(2_000):
            a, b, c = (rng.choice(keys) for _ in range(3))
            ab, j1 = fm._mul(p, a, b)
            left, j2 = fm._mul(p, ab, c)
            bc, j3 = fm._mul(p, b, c)
            right, j4 = fm._mul(p, a, bc)
            assert (left, (j1 + j2) % 330) == (right, (j3 + j4) % 330)
            assert fm._mul(p, e, a) == fm._mul(p, a, e) == (a, 0)


def test_distinct_pool_keys_are_never_proportional(built):
    # what lets equal_up_to_phase answer None whenever the keys differ
    pool = _packed_pool(built.factors, 5)
    for a in range(len(pool)):
        for b in range(a + 1, len(pool)):
            assert pool[a].equal_up_to_phase(pool[b]) is None, (a, b)


@pytest.mark.parametrize("mutation", ["swap-gamma", "shift-r-cubed"])
def test_broken_normal_form_is_caught(built, monkeypatch, mutation):
    fm = built.factors
    if mutation == "swap-gamma":
        ident, gamma, gamma2 = fm._gamma[11]
        monkeypatch.setitem(fm._gamma, 11, [ident, gamma2, gamma])
    else:
        monkeypatch.setitem(fm._wrap, 11, fm._wrap[11] + 1)
    assert _packed_disagreements(fm, 11, _long_words(fm))
    assert not verify_counterexample(built).cross_ok


def test_wrong_factor_trace_is_caught(built, monkeypatch):
    # the sampled dense members' traces refute a factor-form trace
    monkeypatch.setattr(TensorTriple, "trace",
                        lambda self: PhasedScalar.one(1))
    assert not verify_counterexample(built).cross_ok


def test_triple_product_passes_identity_slots_through(built, monkeypatch):
    fm = built.factors
    ident = fm.member(built.quotient.identity)
    assert ident.keys == _ID and ident.j == 0
    a = TensorTriple(fm, (3, 0, 0), 14)  # 3-slot key 3, W(1, 0)
    b = TensorTriple(fm, _R11, 320)
    assert (a @ a).keys == (6, 0, 0) and (a @ a).j == 28
    # an identity key is passed through without reading the twist tables
    monkeypatch.setattr(fm, "_gamma", {})
    t = a @ b
    assert t.keys == (3, 0, 1) and t.j == 4
    assert (a @ ident).keys == a.keys and (a @ ident).j == a.j
    assert (ident @ b).keys == b.keys and (ident @ b).j == b.j


def _random_element(group, rng):
    """A uniform element of a Heisenberg group or of a direct or
    semidirect product of such groups."""
    if isinstance(group, HeisenbergGroup):
        d = group.d
        return HeisenbergElement(d, rng.randrange(d), rng.randrange(d),
                                 rng.randrange(d))
    if isinstance(group, DirectProduct):
        return tuple(_random_element(f, rng) for f in group.factors)
    return (_random_element(group.N, rng), _random_element(group.H, rng))


def _twisted_members(built, rng, n):
    """n seeded group elements with a nonzero central exponent and both
    R slots twisted (x3 and y3 nonzero)."""
    out = []
    while len(out) < n:
        g = _random_element(built.group, rng)
        h = g[1]
        if h.x and h.y and any(z for _, z in FactorMap._keys(g)):
            out.append(g)
    return out


def _value(s: PhasedScalar) -> complex:
    c = s.terms[()]
    return sum(float(q) * cmath.exp(2j * cmath.pi * k / c.order)
               for k, q in c.coeffs.items())


def _complex(m: ExactMatrix) -> np.ndarray:
    """m in complex128.  ExactMatrix.tensor gives the cells of one tuple
    of factor entries one entry object, so each distinct object is
    evaluated once."""
    seen = {}
    out = np.zeros(m.rows * m.cols, dtype=complex)
    for idx, e in enumerate(m.entries):
        if e.terms:
            v = seen.get(id(e))
            if v is None:
                v = seen[id(e)] = _value(e)
            out[idx] = v
    return out.reshape(m.rows, m.cols) * float(m.scale)


def _twisted_pairs(built, seed=165, n=200):
    rng = random.Random(seed)
    members = _twisted_members(built, rng, 20)
    return [(rng.choice(members), rng.choice(members)) for _ in range(n)]


def test_triple_products_match_dense_members(built):
    # the word-and-exponent route against dense 165 x 165 members: the
    # members are materialized exactly, their product is formed in
    # complex128, and the phases differ by far more than the tolerance
    # (distinct 330th roots of unity are 0.019 apart)
    fm, G = built.factors, built.group
    dense = {}

    def member(g):
        if g not in dense:
            dense[g] = _complex(fm.exact_matrix(g))
        return dense[g]

    phases = set()
    for g, h in _twisted_pairs(built):
        gh = G.compose(g, h)
        prod = fm.triple(g) @ fm.triple(h)
        c = prod.equal_up_to_phase(fm.triple(gh))
        assert c is not None and c.is_unit_modulus()
        lhs, rhs = member(g) @ member(h), member(gh)
        i, j = np.unravel_index(np.argmax(np.abs(rhs)), rhs.shape)
        want = lhs[i, j] / rhs[i, j]
        assert np.abs(lhs - want * rhs).max() < 1e-9
        assert abs(_value(c) - want) < 1e-9, (g, h)
        phases.add(c.key())
    assert len(phases) > 1
    # one exact dense product, affordable with an untwisted factor
    g = ((HeisenbergElement(5, 1, 2, 3), HeisenbergElement(11, 4, 5, 6)),
         HeisenbergElement(3, 1, 0, 2))
    h = ((HeisenbergElement(5, 3, 0, 1), HeisenbergElement(11, 2, 7, 9)),
         HeisenbergElement(3, 0, 0, 1))
    c = (fm.triple(g) @ fm.triple(h)).equal_up_to_phase(
        fm.triple(G.compose(g, h)))
    want = (fm.exact_matrix(g) @ fm.exact_matrix(h)).equal_up_to_phase(
        fm.exact_matrix(G.compose(g, h)))
    assert c is not None and c == want


def test_empty_slot_words_trace_without_products(built, monkeypatch):
    # the identity keys trace as the product of the slot dimensions
    fm = built.factors
    calls = _counting_products(monkeypatch)
    assert TensorTriple(fm, _ID).trace() == 165
    assert TensorTriple(fm, _ID, 110).trace() == PhasedScalar.zeta(3) * 165
    assert calls == []


def test_product_words_trace_as_phase_times_product(built, monkeypatch):
    # rho(g) rho(h) traces as omega tr(rho(gh)), read from its keys with no
    # packed product; h = g^-1 c with c central makes the trace of
    # rho(gh) = rho(c) nonzero.  The test-local packed product of the
    # slots is the independent route
    fm, G = built.factors, built.group
    rng = random.Random(29)
    pairs = [(g, G.compose(G.inverse(g), c))
             for g in _twisted_members(built, rng, 3)
             for c in (G.identity, built.center_generator)]
    pairs += _twisted_pairs(built, seed=29, n=6)
    products = [(fm.triple(g), fm.triple(h), fm.triple(G.compose(g, h)))
                for g, h in pairs]
    calls = _counting_products(monkeypatch)
    traces = []
    for a, b, gh in products:
        p = a @ b
        omega = p.equal_up_to_phase(gh)
        assert omega is not None
        assert p.trace() == omega * gh.trace()
        traces.append(p.trace())
    assert calls == []
    nonzero = 0
    for (a, b, gh), tr in zip(products, traces):
        want = PhasedScalar.zeta(330, a.j + b.j)
        for q, ka, kb in zip((3, 5, 11), a.keys, b.keys):
            want = want * PhasedScalar.of(_packed(fm, q, (ka, kb)).trace())
        assert tr == want
        nonzero += not gh.trace().is_zero()
    assert nonzero == 6


def test_triple_trace_and_dim(built):
    fm = built.factors
    ident = fm.member(built.quotient.identity)
    assert ident.dim == 165
    assert ident.trace() == 165
    # one twisted generator: the 3-slot trace vanishes
    assert fm.triple(built.group.generators[4]).trace().is_zero()


# ---------------------------------------------------------------------------
# the construction


def test_group_and_center_structure(built):
    assert built.group.order == 4_492_125
    assert len(built.center) == 165
    assert element_order(built.group, built.center_generator) == 165 == \
        built.checks["center_cyclic_witness_order"]
    assert built.quotient.order == 27_225
    assert built.checks["generator_matrices_pinned"]


def test_generator_pairs_catch_a_broken_factor_map(built, monkeypatch):
    # the word claim of build_g165 rests on rho(q) rho(s) ~ rho(q s) for
    # the generator pairs the niceness sweep checks; a 5-slot key that
    # ignores x3 drops the twist, and the generator x generator pairs
    # alone already refuse it
    fm, Q = built.factors, built.quotient
    pairs = [(s, t) for s in Q.generators for t in Q.generators]
    assert len(pairs) == 36
    member = fm.member

    def refused():
        rep = ProjectiveRep(Q, 165, fm.member)
        out = []
        for s, t in pairs:
            try:
                extract_cocycle(rep, s, t)
            except CocycleError:
                out.append((s, t))
        return out

    assert refused() == []

    def untwisted(i):
        k3, k5, k11 = member(i).keys      # k5 = 3 (5 x5 + y5) + x3
        return TensorTriple(fm, (k3, k5 - k5 % 3, k11))

    monkeypatch.setattr(fm, "member", untwisted)
    twist = Q.generators[4]          # X3 (x) R5 (x) I11
    assert refused() == [(twist, Q.generators[0]), (twist, Q.generators[1])]


def _strip(g):
    """The z-stripping section of G onto the quotient's representatives."""
    (n5, n11), h = g
    return (n5._replace(z=0), n11._replace(z=0)), h._replace(z=0)


def test_quotient_law_matches_the_parent_route(built):
    # Quotient165 composes positions by table reads; the parent route
    # composes the full semidirect elements of the labels and strips z.
    # The tables and _check_law both read FactorMap._gamma, so this is the
    # check that covers them independently
    Q, G = built.quotient, built.group
    carrier = list(Q.elements())
    twisted = Q.generators[4:]       # X3 (x) R5 (x) I11, Z3 (x) I5 (x) R11
    assert [Q.label(s)[1] for s in twisted] == [HeisenbergElement(3, 1, 0, 0),
                                                HeisenbergElement(3, 0, 1, 0)]

    def parent(a, b):
        return _strip(G.compose(Q.label(a), Q.label(b)))

    for s in twisted:
        for g in carrier:
            assert Q.label(Q.compose(g, s)) == parent(g, s), (g, s)
            assert Q.label(Q.compose(s, g)) == parent(s, g), (s, g)
    rng = random.Random(13)
    for _ in range(5_000):
        a, b = rng.choice(carrier), rng.choice(carrier)
        assert Q.label(Q.compose(a, b)) == parent(a, b), (a, b)


def test_swapped_quotient_table_is_caught(built):
    Q, G = built.quotient, built.group
    _check_law(Q, built.conj5, built.conj11)
    ident, gamma, gamma2 = built.factors._gamma[11]
    bad = Quotient165(G, built.center, {**built.factors._gamma,
                                        11: [ident, gamma2, gamma]})
    with pytest.raises(ArithmeticError, match="exponent action"):
        _check_law(bad, built.conj5, built.conj11)
    # with the check bypassed, the law parts from the parent route
    s = bad.generators[5]            # Z3 (x) I5 (x) R11
    assert any(bad.label(bad.compose(s, g))
               != _strip(G.compose(bad.label(s), bad.label(g)))
               for g in bad.elements())


def test_index_and_label_are_inverse(built):
    Q = built.quotient
    labels = [Q.label(i) for i in Q.elements()]
    assert len(labels) == len(set(labels)) == 27_225
    assert [Q.index(g) for g in labels] == list(range(27_225))
    assert all(_strip(g) == g for g in labels)
    # index is constant on central cosets
    rng = random.Random(7)
    for _ in range(200):
        g = _random_element(built.group, rng)
        assert Q.index(g) == Q.index(_strip(g))
        assert Q.label(Q.index(g)) == _strip(g)
    assert Q.identity == 0
    assert [Q.label(s) for s in Q.generators] == list(built.group.generators)


def test_positions_follow_the_carrier_nesting(built):
    # positions nest x5, y5, x11, y11, x3, y3, so a seeded draw over
    # positions picks what the same draw over the labels in that order does
    Q = built.quotient
    nesting = itertools.product(*(range(p) for p in (5, 5, 11, 11, 3, 3)))
    assert [Q.label(i) for i in Q.elements()] == [
        ((HeisenbergElement(5, x5, y5, 0), HeisenbergElement(11, x11, y11, 0)),
         HeisenbergElement(3, x3, y3, 0))
        for x5, y5, x11, y11, x3, y3 in nesting]


def test_dense_sample_members_are_pinned(built, report, monkeypatch):
    # the 12 members verify_counterexample materializes at seed 1650, as
    # (x5, y5, x11, y11, x3, y3); the niceness sweep, which draws from
    # its own rng, is stubbed with the report fixture's
    fm = built.factors
    seen = []
    exact = fm.exact_matrix
    monkeypatch.setattr(fm, "exact_matrix",
                        lambda g: seen.append(g) or exact(g))
    monkeypatch.setattr(counterexample165, "verify_nice",
                        lambda *args, **kwargs: report.niceness)
    assert verify_counterexample(built, seed=1650).cross_ok
    assert len(seen) == 3 + 6 + 12 + 1   # center, generators, sample, probe
    assert [(n5.x, n5.y, n11.x, n11.y, h.x, h.y)
            for (n5, n11), h in seen[9:21]] == [
        (2, 4, 4, 9, 1, 1), (0, 1, 9, 7, 1, 0), (2, 0, 5, 1, 1, 1),
        (2, 1, 4, 2, 1, 1), (2, 0, 9, 10, 0, 0), (4, 2, 1, 0, 1, 0),
        (3, 0, 5, 3, 0, 1), (0, 4, 5, 4, 0, 2), (1, 4, 0, 4, 0, 0),
        (0, 0, 7, 5, 2, 2), (1, 2, 5, 3, 2, 1), (2, 1, 2, 5, 0, 2)]


def test_a_wrong_sampled_member_is_refuted_after_all_are_built(
        built, report, monkeypatch):
    # the first of the 12 seeded dense members disagrees with its factor
    # form: cross_ok falls, the other 11 are still built and compared, and
    # the _mul cross-check after them draws its keys from the same stream
    fm, Q = built.factors, built.quotient
    rng = random.Random(1650)
    first = Q.label(rng.sample(range(Q.order), 12)[0])
    keys = [(p, rng.choice(range(len(fm.pool[p]))),
             rng.choice(range(len(fm.pool[p]))))
            for p in (5, 11) for _ in range(10)]
    seen, muls = [], []
    exact, mul = fm.exact_matrix, fm._mul

    def exact_matrix(g):
        seen.append(g)
        return ExactMatrix.identity(165) if g == first else exact(g)

    monkeypatch.setattr(fm, "exact_matrix", exact_matrix)
    monkeypatch.setattr(fm, "_mul",
                        lambda p, a, b: muls.append((p, a, b)) or mul(p, a, b))
    monkeypatch.setattr(counterexample165, "verify_nice",
                        lambda *args, **kwargs: report.niceness)
    wrong = verify_counterexample(built, seed=1650)
    assert not wrong.cross_ok and not wrong.ok and wrong.cross_checks == 21
    assert seen[9] == first and len(seen) == 3 + 6 + 12 + 1
    assert muls[-20:] == keys


def test_member_keys_match_the_parent_keys(built):
    # the slot keys member reads from a position's digits against _keys
    # of its label, on every position
    fm, Q = built.factors, built.quotient
    for i in Q.elements():
        t = fm.member(i)
        keys = tuple((k, 0) for k in t.keys)
        assert t.j == 0 and keys == FactorMap._keys(Q.label(i)), i


def test_failures_name_section_representatives(built):
    # a broken member: the failures name labels, not positions
    Q, fm = built.quotient, built.factors
    broken = Q.generators[0]

    def rho(i):
        return fm.member(Q.identity if i == broken else i)

    rep = verify_nice(ProjectiveRep(Q, 165, rho), pair_mode="sampled",
                      seed=3, sample_size=0)
    assert not rep.cocycle_ok and not rep.cocycle_exhaustive
    failures = rep.summary()["failures"]
    assert failures and all("HeisenbergElement" in f for f in failures)
    assert ("trace", Q.label(broken)) in rep.failures
    assert ("cocycle", Q.label(broken), Q.label(1)) in rep.failures


def test_extract_cocycle_names_section_representatives(built):
    # the same broken member, called directly: the CocycleError names the
    # pair by labels, not by positions
    Q, fm = built.quotient, built.factors

    def rho(i):
        return fm.member(Q.identity if i == 5445 else i)

    with pytest.raises(CocycleError) as err:
        extract_cocycle(ProjectiveRep(Q, 165, rho), 5445, 1)
    message = str(err.value)
    assert "HeisenbergElement" in message and "rho(5445)" not in message


def test_quotient_sweep_makes_no_heisenberg_compositions(built, monkeypatch):
    calls = []
    compose = HeisenbergGroup.compose

    def counting(self, a, b):
        calls.append(1)
        return compose(self, a, b)

    monkeypatch.setattr(HeisenbergGroup, "compose", counting)
    rep = verify_nice(built.rep, pair_mode="sampled", seed=3,
                      sample_size=500)
    assert rep.ok and rep.pairs_checked == 326_700 + 500
    assert calls == []
    # the wrapper is live: the parent group still counts
    built.group.compose(*built.group.generators[:2])
    assert len(calls) == 3


def test_central_member_is_a_scalar_matrix(built):
    fm = built.factors
    z3 = ((HeisenbergElement(5, 0, 0, 0), HeisenbergElement(11, 0, 0, 0)),
          HeisenbergElement(3, 0, 0, 1))
    want = ExactMatrix.identity(165).scalar_mul(PhasedScalar.zeta(3))
    assert fm.exact_matrix(z3) == want


def test_trace_sweep(built, report):
    assert report.trace_zero_count == 27_224
    Q = built.quotient
    assert report.trace_nonzero_labels == (Q.label(Q.identity),)
    assert str(report.trace_nonzero_labels[0]).count("HeisenbergElement") == 3
    assert report.identity_trace_ok


def test_niceness_report(report):
    n = report.niceness
    assert n.ok
    assert n.identity_ok and n.unitary_ok and n.trace_ok and n.cocycle_ok
    assert n.elements_checked == 27_225
    assert n.pairs_checked == 336_700
    # TensorTriple members: the sweep stays on the matrix route
    assert n.pair_route == "matrix"


def test_slot_counts_decide_monomiality(built, report):
    # the premise of TensorTriple.is_monomial on all 447 pool entries: a
    # p x p unitary has at least p nonzero entries, exactly p when monomial
    fm = built.factors
    entries = [(p, k, m) for p in _PRIMES for k, m in enumerate(fm.pool[p])]
    assert len(entries) == 447
    for p, k, m in entries:
        n = m.nonzero_count()
        assert fm.nnz[p][k] == n >= p, (p, k)
        assert (n == p) == m.is_monomial(), (p, k)
    assert report.monomial_members == 3_025


def test_pool_entries_are_unitary_on_the_packed_route(built):
    # FactorMap._verify_pools proves this; the packed route checks all
    # 447 entries, and their traces against the exact ones
    fm = built.factors
    n = 0
    for p in _PRIMES:
        ident = CycMatrix.identity(p, p)
        for key, cm in enumerate(_packed_pool(fm, p)):
            assert cm @ cm.dagger() == ident, (p, key)
            assert PhasedScalar.of(cm.trace()) == fm.tr[p][key], (p, key)
            n += 1
    assert n == 447


def test_pool_entries_are_the_dense_products(built):
    # FactorMap._pool forms each distinct (Weyl entry, R^k entry) product
    # once; the independent route is the dense W(x, y) @ R^k, compared by
    # value and by JSON bytes, which carry every entry's order
    fm = built.factors
    powers = {3: [ExactMatrix.identity(3)]}
    for c in (built.conj5, built.conj11):
        powers[c.p] = [c.R ** k for k in range(3)]
    n = 0
    for p in _PRIMES:
        # the int key n (p x + y) + k decoded, n = 3 twist powers or 1
        twists = len(powers[p])
        assert len(fm.pool[p]) == twists * p * p
        for key, m in enumerate(fm.pool[p]):
            (x, y), k = divmod(key // twists, p), key % twists
            want = weyl_matrix(p, x, y) @ powers[p][k]
            assert m == want, (p, x, y, k)
            assert matrix_to_json(m) == matrix_to_json(want), (p, x, y, k)
            n += 1
    assert n == 447
    # entries share their values: at most (p + 1) * 2p distinct products
    distinct = {id(e) for key, m in enumerate(fm.pool[11]) if key % 3
                for e in m.entries}
    assert len(distinct) <= 12 * 22


def _columns(Q):
    """verify_nice's generator columns: (s, False) for the pairs (s, h),
    then (s, True) for the pairs (h, s)."""
    return [(s, right) for right in (False, True) for s in Q.generators]


def _counting_triple_products(monkeypatch):
    calls = []
    matmul = TensorTriple.__matmul__
    monkeypatch.setattr(TensorTriple, "__matmul__",
                        lambda a, b: calls.append(1) or matmul(a, b))
    return calls


def _swapped_rep(built):
    """The 165 basis with the members of positions 7 and 12345
    exchanged: each is then wrong in every pair it enters."""
    Q, fm = built.quotient, built.factors
    swap = {7: 12_345, 12_345: 7}
    return ProjectiveRep(Q, 165, lambda i: fm.member(swap.get(i, i)))


def _slot_altered_rep(built):
    """The 165 basis with one slot key moved in each of three members:
    the 3-slot of position 7, the 5-slot of 12345 and the 11-slot of
    20000, so each slot alone decides some pairs."""
    Q, fm = built.quotient, built.factors
    moved = {7: (1, 0, 0), 12_345: (0, 3, 0), 20_000: (0, 0, 3)}

    def rho(i):
        keys = fm.member(i).keys
        if i in moved:
            keys = tuple((k + d) % len(fm.pool[p])
                         for p, k, d in zip(_PRIMES, keys, moved[i]))
        return TensorTriple(fm, keys)

    return ProjectiveRep(Q, 165, rho)


def test_generator_rows_agree_with_triple_products(built, monkeypatch):
    # the column sweep rejects a generator pair exactly when the product
    # of the members does, and forms no product: on seeded pairs of every
    # column, and on every pair that enters or composes to a changed member
    Q = built.quotient
    columns, elems = _columns(Q), list(Q.elements())
    rng = random.Random(41)
    for rep, changed in ((built.rep, ()), (_swapped_rep(built), (7, 12_345)),
                         (_slot_altered_rep(built), (7, 12_345, 20_000))):
        calls = _counting_triple_products(monkeypatch)
        sweep = rep.matrix(Q.identity).column_sweep(rep, elems, columns)
        rejected = [set(row) for row in sweep]
        assert calls == []
        monkeypatch.undo()
        for (s, right), bad in zip(columns, rejected):
            def pair(i):
                return (i, s) if right else (s, i)
            touched = [i for i in elems
                       if {i, Q.compose(*pair(i))} & set(changed)]
            assert len(touched) == 2 * len(changed)
            for i in rng.sample(elems, 150) + touched:
                try:
                    extract_cocycle(rep, *pair(i))
                except CocycleError:
                    assert i in bad, pair(i)
                else:
                    assert i not in bad, pair(i)
            assert bad <= set(touched)


def test_generator_rows_fail_as_the_triple_products(built, monkeypatch):
    # the same failures, the same pairs checked and the same stop after
    # 32 failures as with the sweep switched off; with the sweep, only the
    # rejected pairs form a member product, their re-check
    calls = _counting_triple_products(monkeypatch)
    rows = verify_nice(_swapped_rep(built), pair_mode="sampled", seed=3,
                       sample_size=100)
    assert len(calls) == 33
    monkeypatch.setattr(TensorTriple, "column_sweep", None)
    products = verify_nice(_swapped_rep(built), pair_mode="sampled", seed=3,
                           sample_size=100)
    assert len(calls) == 33 + products.pairs_checked
    assert not rows.cocycle_ok and len(rows.failures) == 33
    assert rows.pairs_checked < 326_700
    assert rows.failures == products.failures
    assert rows.pairs_checked == products.pairs_checked
    assert rows.summary() == products.summary()


def test_generator_pair_failure_is_listed_at_both_positions(built,
                                                            monkeypatch):
    # rho(s t) replaced by another member: the pair (s, t) of two
    # generators is in the column of s on the left and in that of t on
    # the right, and fails in both; the failures stay under the stop, so
    # pairs_checked is the whole stream
    Q, fm = built.quotient, built.factors
    s, t = Q.generators[:2]
    st = Q.compose(s, t)
    rep = ProjectiveRep(Q, 165, lambda i: fm.member(7 if i == st else i))
    swept = verify_nice(rep, pair_mode="sampled", seed=3, sample_size=0)
    monkeypatch.setattr(TensorTriple, "column_sweep", None)
    products = verify_nice(rep, pair_mode="sampled", seed=3, sample_size=0)
    failure = ("cocycle", Q.label(s), Q.label(t))
    assert swept.failures.count(failure) == 2
    assert swept.failures == products.failures
    assert len(swept.failures) < 33
    assert swept.pairs_checked == products.pairs_checked == 326_700


def test_generator_row_rejection_of_a_good_pair_raises(built, monkeypatch):
    # a sweep that rejects a pair the product accepts is caught by the
    # re-check on the product
    def wrong(self, rep, elems, columns):
        return ([7] if c == 3 else [] for c in range(len(columns)))

    monkeypatch.setattr(TensorTriple, "column_sweep", wrong)
    with pytest.raises(ArithmeticError, match="dense product accepts"):
        verify_nice(built.rep, pair_mode="sampled", seed=3, sample_size=0)


def test_monomial_split(built, report):
    assert report.monomial_members == 3_025
    assert report.nonmonomial_members == 24_200
    assert not report.generator_monomiality.is_monomial
    assert report.generator_monomiality.per_matrix_nonzero == \
        (165, 165, 165, 165, 825, 1815)
    assert report.nonmonomial_witness == built.group.generators[4]


def test_center_scalars_and_cross_routes(report):
    assert report.center_scalars_ok
    assert report.cross_ok
    assert report.cross_checks == 21


def test_report_ok_and_summary(report):
    assert report.ok
    s = report.summary()
    assert s["ok"] and s["dim"] == 165
    assert s["group_order"] == 4_492_125
    assert s["caveat"]


def test_dense_members_match_generic_tensor(built):
    # the integer-form assembly of FactorMap.exact_matrix against the
    # per-entry chain, with twisted R slots at both primes and nonzero
    # central offsets
    fm = built.factors
    for k3, k5, k11, offset in (((1, 0), (1, 2, 1), (4, 5, 0), 1),
                                ((0, 1), (3, 0, 0), (2, 9, 2), 56),
                                ((2, 2), (4, 4, 2), (0, 0, 0), 164),
                                ((1, 1), (0, 3, 0), (6, 1, 1), 33)):
        e3, e5, e11 = (fm.pool[p][_key(p, *k)]
                       for p, k in zip(_PRIMES, (k3, k5, k11)))
        zeta = PhasedScalar.zeta(165, offset)
        got = ExactMatrix(1, 1, [zeta]).tensor(e3, e5, e11)
        want = _chain_tensor(e3, e5, e11).scalar_mul(zeta)
        assert got == want and got.scale == want.scale
        assert matrix_to_json(got) == matrix_to_json(want)
        # no two tuples of slot entries give equal entries here, so equal
        # entries are one object
        assert len({id(e) for e in got.entries}) == \
            len({e.key() for e in got.entries})


def test_phased_dense_members_keep_the_combined_phase(built):
    # exact_matrix gives each slot its own phase zeta_p^(z_p); the
    # independent route is the per-entry chain of the bare pool entries
    # times the one phase zeta_165^z, z = 55 h.z + 33 n5.z + 15 n11.z, of
    # one term at z = 1 and of 57 at z = 98, with every z_p nonzero and the
    # 11- or the 5-slot twisted
    fm = built.factors
    for z, (x5, y5), (x11, y11), (x3, y3) in ((1, (3, 0), (2, 9), (0, 2)),
                                              (98, (1, 2), (4, 5), (1, 0))):
        zeta = PhasedScalar.zeta(165, z)
        assert len(zeta.terms[()].coeffs) == (1 if z == 1 else 57)
        z3, z5, z11 = next(
            t for t in itertools.product(range(3), range(5), range(11))
            if (55 * t[0] + 33 * t[1] + 15 * t[2]) % 165 == z)
        assert z3 and z5 and z11
        g = ((HeisenbergElement(5, x5, y5, z5),
              HeisenbergElement(11, x11, y11, z11)),
             HeisenbergElement(3, x3, y3, z3))
        got = fm.exact_matrix(g)
        want = _chain_tensor(fm.pool[3][_key(3, x3, y3)],
                             fm.pool[5][_key(5, x5, y5, x3)],
                             fm.pool[11][_key(11, x11, y11, y3)]
                             ).scalar_mul(zeta)
        assert got == want and got.scale == want.scale, g
        assert matrix_to_json(got) == matrix_to_json(want), g
        assert fm.triple(g).j == 2 * z % 330, g


_PROBE = ((HeisenbergElement(5, 1, 2, 3), HeisenbergElement(11, 4, 5, 6)),
          HeisenbergElement(3, 1, 0, 2))


@pytest.mark.parametrize("alter", ["negate a nonzero entry",
                                   "fill a zero entry"])
def test_probe_refutes_a_wrong_dense_member(built, monkeypatch, alter):
    # only the probe member is wrong, so only its chain reference can
    # notice: cross_ok falls and the count of cross-checks stays
    fm, seen = built.factors, []
    real = fm.exact_matrix

    def exact_matrix(g):
        m = real(g)
        if g != _PROBE:
            return m
        seen.append(g)
        ents = list(m.entries)
        first = next(k for k, e in enumerate(ents) if e.terms)
        if alter == "negate a nonzero entry":
            ents[first] = -ents[first]
        else:
            ents[next(k for k, e in enumerate(ents) if not e.terms)] = \
                ents[first]
        return ExactMatrix(m.rows, m.cols, ents, m.scale)

    monkeypatch.setattr(fm, "exact_matrix", exact_matrix)
    report = verify_counterexample(built)
    assert seen == [_PROBE]
    assert not report.cross_ok and report.cross_checks == 21
    assert not report.ok


def test_monomiality_report_reads_generators(built):
    fm = built.factors
    members = list(built.group.generators) + [built.group.identity]
    as_list = monomiality_report([fm.exact_matrix(t) for t in members])
    streamed = monomiality_report(fm.exact_matrix(t) for t in members)
    assert streamed == as_list
    assert not streamed.is_monomial
    assert streamed.per_matrix_nonzero == (165,) * 4 + (825, 1815, 165)
    assert monomiality_report(iter([])) == monomiality_report([])


def test_export_bundle_factor_form(built):
    bundle = export_bundle(built)
    assert bundle["dim"] == 165
    assert "generators_full" not in bundle
    assert len(bundle["factor_pools"]["3"]) == 9
    assert len(bundle["factor_pools"]["5"]) == 75
    assert len(bundle["factor_pools"]["11"]) == 363
    assert bundle["conjugators"]["5"]["action"] == [[4, 4], [1, 0]]
    assert bundle["conjugators"]["11"]["action"] == [[10, 10], [1, 0]]
    assert len(bundle["generators"]) == 6


def test_export_bundle_names_pool_keys_by_coordinates(built):
    # the bundle keeps tuple names for the int keys: "x,y" in the 3-slot,
    # "x,y,k" in the 5- and 11-slots, each naming the entry at its int key
    pools, fm = export_bundle(built)["factor_pools"], built.factors
    coords = {3: [(x, y) for x in range(3) for y in range(3)],
              5: list(itertools.product(range(5), range(5), range(3))),
              11: list(itertools.product(range(11), range(11), range(3)))}
    for p, names in coords.items():
        assert set(pools[str(p)]) == {",".join(map(str, c)) for c in names}
        for c in names:
            assert pools[str(p)][",".join(map(str, c))] == \
                matrix_to_json(fm.pool[p][_key(p, *c)]), (p, c)


def test_export_bundle_full_generators(built):
    bundle = export_bundle(built, factors_only=False)
    assert len(bundle["generators_full"]) == 6
    assert all(m["rows"] == 165 for m in bundle["generators_full"])


def test_full_bundle_bytes_are_pinned(built):
    # the bytes construct counterexample165 --out writes: the six dense
    # generators come from ExactMatrix.tensor, and a change to them must
    # be deliberate
    digest = hashlib.sha256()
    for piece in cli._json_pieces(export_bundle(built, factors_only=False)):
        digest.update(piece.encode())
    assert digest.hexdigest() == (
        "5657dd5362b6ba768ebb04108e43a3473642258940780a55d5b3c9a6c22c932d")


def _bundle_matrices(built):
    """The exact matrices of a factors-only bundle, in export order."""
    fm = built.factors
    return ([m for c in (built.conj5, built.conj11)
             for m in (c.F, c.D, c.B, c.R)]
            + [m for p in _PRIMES for m in fm.pool[p]])


def test_export_codes_each_distinct_entry_once(built, monkeypatch):
    # one memo serves the whole export: scalar_to_json runs once per
    # distinct entry value of all 455 matrices, not once per matrix
    from uebkit import exactmat
    calls = []
    real = exactmat.scalar_to_json
    monkeypatch.setattr(exactmat, "scalar_to_json",
                        lambda s: calls.append(1) or real(s))
    bundle = export_bundle(built)
    matrices = _bundle_matrices(built)
    assert len(matrices) == 455
    assert len(calls) == len({e.key() for m in matrices for e in m.entries})
    per_matrix = sum(len({e.key() for e in m.entries}) for m in matrices)
    assert len(calls) < per_matrix
    monkeypatch.undo()
    assert bundle == _export_with_fresh_memos(built, monkeypatch)


def _export_with_fresh_memos(built, monkeypatch, factors_only=True):
    """export_bundle with a new matrix_to_json memo for every matrix."""
    monkeypatch.setattr(counterexample165, "matrix_to_json",
                        lambda m, memo=None: matrix_to_json(m))
    try:
        return export_bundle(built, factors_only=factors_only)
    finally:
        monkeypatch.undo()


def test_export_memo_survives_temporary_matrices(built, monkeypatch):
    # the dense generators are temporaries whose entries die with them;
    # the shared memo holds every entry it keys by id, so a recycled id
    # cannot hand a later entry an earlier one's JSON
    want = _export_with_fresh_memos(built, monkeypatch, factors_only=False)
    assert export_bundle(built, factors_only=False) == want

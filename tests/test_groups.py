import random

import pytest

from uebkit import groups
from uebkit.groups import (
    CyclicGroup,
    DirectProduct,
    HeisenbergElement,
    HeisenbergGroup,
    SL2Element,
    SL2Group,
    SemidirectProduct,
    SubgroupView,
    acts_irreducibly,
    alpha_aut,
    beta_aut,
    center,
    element_order,
    generated_order,
    is_automorphism,
    sl2_alpha,
    sl2_beta,
    sl2_elements_of_order,
    transversal,
)


def gamma_aut(g: HeisenbergElement) -> HeisenbergElement:
    """beta . alpha . beta . alpha, applying alpha first."""
    return beta_aut(alpha_aut(beta_aut(alpha_aut(g))))


def random_element(h: HeisenbergGroup, rng) -> HeisenbergElement:
    d = h.d
    return HeisenbergElement(d, rng.randrange(d), rng.randrange(d),
                             rng.randrange(d))


def test_heisenberg_composition_hand_values():
    h = HeisenbergGroup(5)
    e1, e2 = h.generators
    assert h.compose(e1, e2) == HeisenbergElement(5, 1, 1, 1)
    assert h.compose(e2, e1) == HeisenbergElement(5, 1, 1, 0)
    g = HeisenbergElement(5, 2, 3, 4)
    assert h.compose(g, h.inverse(g)) == h.identity
    assert h.compose(h.inverse(g), g) == h.identity
    with pytest.raises(ValueError):
        h.compose(g, HeisenbergElement(7, 0, 0, 0))


def test_heisenberg_axioms_sampled():
    rng = random.Random(2)
    for d in (3, 4, 5):
        h = HeisenbergGroup(d)
        assert h.order == d ** 3
        for _ in range(60):
            a, b, c = (random_element(h, rng) for _ in range(3))
            assert h.compose(h.compose(a, b), c) == h.compose(a, h.compose(b, c))
        assert element_order(h, HeisenbergElement(d, 1, 0, 0)) == d


def test_heisenberg_center_and_transversal():
    h = HeisenbergGroup(3)
    z = center(h)
    assert z == [HeisenbergElement(3, 0, 0, k) for k in range(3)]
    t = transversal(h, z)
    assert len(t) == 9
    assert t[0] == h.identity
    assert all(g.z == 0 for g in t)
    # distinct cosets cover the group
    keys = {min(h.compose(g, zz) for zz in z) for g in t}
    assert len(keys) == 9


def test_automorphisms_small():
    h3 = HeisenbergGroup(3)
    assert is_automorphism(h3, alpha_aut)
    assert is_automorphism(h3, beta_aut)
    assert is_automorphism(h3, gamma_aut)
    # gamma has order 3 as a map
    for g in h3.elements():
        assert gamma_aut(gamma_aut(gamma_aut(g))) == g
    # a non-homomorphism is rejected
    swap = {g: g for g in h3.elements()}
    a, b = HeisenbergElement(3, 1, 0, 0), HeisenbergElement(3, 0, 1, 0)
    swap[a], swap[b] = swap[b], swap[a]
    assert not is_automorphism(h3, lambda g: swap[g])
    with pytest.raises(ValueError):
        alpha_aut(HeisenbergElement(4, 1, 0, 0))
    with pytest.raises(ValueError):
        beta_aut(HeisenbergElement(9, 1, 0, 0))


def _full_pair_sweep(G, f) -> bool:
    """The |G|^2 reference: bijection, identity fixed, every pair."""
    elems = list(G.elements())
    images = {g: f(g) for g in elems}
    if set(images.values()) != set(elems) or images[G.identity] != G.identity:
        return False
    return all(images[G.compose(g, h)] == G.compose(images[g], images[h])
               for g in elems for h in elems)


def test_generator_check_matches_full_pair_sweep():
    rng = random.Random(165)
    for d in (3, 5, 7):
        h = HeisenbergGroup(d)
        for aut in (alpha_aut, beta_aut, gamma_aut):
            assert _full_pair_sweep(h, aut)
            assert is_automorphism(h, aut)
    # seeded random bijections fixing the identity: the generator check
    # must agree with the reference, and none of them is a homomorphism
    for k in range(60):
        h = HeisenbergGroup((3, 5, 7)[k % 3])
        rest = [g for g in h.elements() if g != h.identity]
        shuffled = rest[:]
        rng.shuffle(shuffled)
        table = dict(zip(rest, shuffled))
        table[h.identity] = h.identity
        f = table.__getitem__
        assert is_automorphism(h, f) == _full_pair_sweep(h, f)
        assert not is_automorphism(h, f)
    h3 = HeisenbergGroup(3)
    swap = {g: g for g in h3.elements()}
    a, b = h3.generators
    swap[a], swap[b] = swap[b], swap[a]
    assert not _full_pair_sweep(h3, swap.__getitem__)
    assert not is_automorphism(h3, swap.__getitem__)


def test_generator_check_accepts_random_automorphism_words():
    rng = random.Random(11)
    for d in (5, 7):
        h = HeisenbergGroup(d)
        for _ in range(4):
            word = [rng.choice((alpha_aut, beta_aut)) for _ in range(5)]

            def f(g, word=word):
                for aut in word:
                    g = aut(g)
                return g

            assert is_automorphism(h, f) and _full_pair_sweep(h, f)


def test_generated_order():
    # the closure of {e} under right multiplication by the generators
    h5 = HeisenbergGroup(5)
    assert generated_order(h5, h5.generators) == 125
    assert generated_order(h5, h5.generators[:1]) == 5
    assert generated_order(h5, (HeisenbergElement(5, 0, 0, 1),)) == 5
    assert generated_order(h5, ()) == 1
    c6 = CyclicGroup(6)
    assert generated_order(c6, (2,)) == 3
    assert generated_order(c6, (2, 3)) == 6
    g = DirectProduct(CyclicGroup(4), HeisenbergGroup(3))
    assert generated_order(g, g.generators) == g.order == 108
    assert generated_order(g, g.generators[1:]) == 27


def test_generator_check_needs_generating_set(monkeypatch):
    c6 = CyclicGroup(6)
    c6.generators = (2,)
    with pytest.raises(ValueError):
        is_automorphism(c6, lambda x: x)
    h5 = HeisenbergGroup(5)
    h5.generators = h5.generators[:1]
    with pytest.raises(ValueError):
        is_automorphism(h5, alpha_aut)
    # no declared generators: the full sweep over all elements
    z = SubgroupView(HeisenbergGroup(3), center(HeisenbergGroup(3)))
    assert is_automorphism(z, lambda g: z.compose(g, g))
    monkeypatch.setattr(groups, "MAX_AUTOMORPHISM_PAIRS", 100)
    with pytest.raises(ValueError):
        is_automorphism(HeisenbergGroup(5), alpha_aut)


def _filtered_center(G):
    return [g for g in G.elements()
            if all(G.compose(g, t) == G.compose(t, g) for t in G.generators)]


def test_direct_product_center_matches_filter():
    for g in (DirectProduct(HeisenbergGroup(3), HeisenbergGroup(5)),
              DirectProduct(CyclicGroup(4), HeisenbergGroup(3))):
        z = center(g)
        assert z == _filtered_center(g)
        assert len(z) == len(center(g.factors[0])) * len(center(g.factors[1]))


def test_sl2_basics():
    for p, n in [(3, 24), (5, 120), (7, 336), (11, 1320)]:
        g = SL2Group(p)
        assert len(list(g.elements())) == n
    g5 = SL2Group(5)
    elems = list(g5.elements())
    rng = random.Random(4)
    for _ in range(50):
        a, b = rng.choice(elems), rng.choice(elems)
        assert g5.compose(a, g5.inverse(a)) == g5.identity
        c = g5.compose(a, b)
        assert (c.a * c.d - c.b * c.c) % 5 == 1


def test_gamma_word_matrix():
    # beta alpha beta alpha as a matrix product (alpha applied first)
    for p in (5, 11):
        g = SL2Group(p)
        a, b = sl2_alpha(p), sl2_beta(p)
        word = g.compose(b, g.compose(a, g.compose(b, a)))
        assert word == SL2Element(p, (-1) % p, 1, (-1) % p, 0)
        assert element_order(g, word) == 3
        assert acts_irreducibly(word)


def test_acts_irreducibly():
    # alpha has eigenvalues iff -1 is a square mod p
    assert not acts_irreducibly(sl2_alpha(5))     # 2^2 = -1 mod 5
    assert acts_irreducibly(sl2_alpha(7))
    assert not acts_irreducibly(SL2Group(5).identity)


def test_sl2_elements_of_order():
    cubes5 = sl2_elements_of_order(5, 3)
    assert len(cubes5) == 20
    g5 = SL2Group(5)
    for m in cubes5:
        assert g5.compose(g5.compose(m, m), m) == g5.identity
        assert m != g5.identity
    assert len(sl2_elements_of_order(3, 2)) == 1   # only -I has order 2


def test_direct_product():
    g = DirectProduct(CyclicGroup(3), CyclicGroup(3))
    assert g.order == 9
    assert list(g.elements())[0] == (0, 0)
    assert g.compose((1, 2), (2, 2)) == (0, 1)
    assert g.inverse((1, 2)) == (2, 1)
    assert len(g.generators) == 2


def test_semidirect_product():
    n, h = CyclicGroup(7), CyclicGroup(3)

    def act(k, x):  # multiplication by 2^k, an order-3 automorphism of C7
        return x * pow(2, k, 7) % 7

    g = SemidirectProduct(n, h, act)
    assert g.order == 21
    # every triple: associativity, and the inverse on both sides
    elems = list(g.elements())
    assert len(set(elems)) == 21
    for a in elems:
        assert g.compose(a, g.inverse(a)) == g.identity
        assert g.compose(g.inverse(a), a) == g.identity
        for b in elems:
            ab = g.compose(a, b)
            for c in elems:
                assert g.compose(ab, c) == g.compose(a, g.compose(b, c))
    # nonabelian: the action is nontrivial
    assert g.compose((1, 0), (0, 1)) != g.compose((0, 1), (1, 0))
    assert g.center_structural() is None
    # trivial action degenerates to the direct product rule
    triv = SemidirectProduct(n, h, lambda k, x: x)
    zs = triv.center_structural()
    assert zs is not None and len(zs) == 21


def test_subgroup_view():
    h = HeisenbergGroup(3)
    z = SubgroupView(h, center(h))
    assert z.order == 3
    with pytest.raises(ValueError):
        SubgroupView(h, [h.identity, HeisenbergElement(3, 1, 0, 0)])

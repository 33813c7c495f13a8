import random
from fractions import Fraction

import pytest

from uebkit.cyclo import PhasedScalar
from uebkit.exactmat import ExactMatrix, matrix_to_json
from uebkit.groups import (
    CyclicGroup,
    HeisenbergElement,
    HeisenbergGroup,
    SubgroupView,
    center,
)
from uebkit.induce import (
    ClassFunction,
    InducedRep,
    character_rep,
    class_function,
    conjugacy_classes,
    induce_character,
    induce_representation,
    sparsity_check,
)
from uebkit.nice import ProjectiveRep, heisenberg_rep


def central_character(d: int, power: int = 1):
    G = HeisenbergGroup(d)
    Z = SubgroupView(G, center(G))
    psi = class_function(Z, lambda k: PhasedScalar.zeta(d, power * k.z))
    return G, Z, psi


def test_heisenberg3_class_structure():
    G = HeisenbergGroup(3)
    classes = conjugacy_classes(G)
    assert len(classes) == 11
    assert sorted(len(c) for c in classes) == [1, 1, 1] + [3] * 8


def test_class_function_rejects_nonconstant():
    G = HeisenbergGroup(3)
    with pytest.raises(ValueError, match="conjugacy"):
        class_function(G, lambda g: PhasedScalar.zeta(3, g.z))


def test_regular_character_from_trivial_subgroup():
    G = CyclicGroup(6)
    K = SubgroupView(G, [0])
    psi = class_function(K, lambda k: PhasedScalar.one(1))
    chi = induce_character(psi, G)
    assert chi.value(0) == PhasedScalar.of(6)
    for g in range(1, 6):
        assert chi.value(g).is_zero()


def test_central_induction_character_values():
    G, Z, psi = central_character(3)
    chi = induce_character(psi, G)
    w = PhasedScalar.zeta(3)
    assert chi.value(G.identity) == PhasedScalar.of(9)
    assert chi.value(HeisenbergElement(3, 0, 0, 1)) == w * 9
    assert chi.value(HeisenbergElement(3, 0, 0, 2)) == w * w * 9
    for g in G.elements():
        if (g.x, g.y) != (0, 0):
            assert chi.value(g).is_zero()
    assert chi.is_class_function()


def test_central_induction_representation():
    G, Z, psi = central_character(3)
    ind = induce_representation(character_rep(psi), G)
    assert ind.dim == 9 and ind.index == 9 and ind.degree == 1
    assert ind.matrix(G.identity).is_identity()
    assert ind.block_structure_ok()
    chi = induce_character(psi, G)
    for h in G.elements():
        m = ind.matrix(h)
        assert m.is_monomial()
        assert m.zero_fraction() == Fraction(8, 9)
        assert m.is_scaled_unitary() == 1
        assert m.trace() == chi.value(h)
    assert sparsity_check(ind) == Fraction(8, 9)


def test_central_induction_is_a_rep():
    G, Z, psi = central_character(3)
    ind = induce_representation(character_rep(psi), G)
    rng = random.Random(7)
    elems = list(G.elements())
    for _ in range(60):
        g, h = rng.choice(elems), rng.choice(elems)
        assert ind.matrix(g) @ ind.matrix(h) == ind.matrix(G.compose(g, h))


def test_index_two_induction():
    G = CyclicGroup(4)
    K = SubgroupView(G, [0, 2])
    psi = class_function(K, lambda k: PhasedScalar.of(1 if k == 0 else -1))
    ind = induce_representation(character_rep(psi), G)
    assert ind.dim == 2
    assert sparsity_check(ind) == Fraction(1, 2)
    chi = induce_character(psi, G)
    assert chi.value(0) == PhasedScalar.of(2)
    assert chi.value(2) == PhasedScalar.of(-2)
    assert chi.value(1).is_zero() and chi.value(3).is_zero()
    for g in G.elements():
        assert ind.matrix(g).trace() == chi.value(g)
        assert ind.matrix(g) @ ind.matrix((g + 1) % 4) == \
            ind.matrix((2 * g + 1) % 4)


def test_inducing_from_whole_group_is_identity_functor():
    G = HeisenbergGroup(3)
    rho = heisenberg_rep(3)
    ind = induce_representation(rho, G)
    assert ind.index == 1 and ind.dim == 3
    for h in G.elements():
        assert ind.matrix(h) == rho.matrix(h)


def test_character_rep_rejects_nonmultiplicative():
    G = CyclicGroup(4)
    K = SubgroupView(G, [0, 2])
    vals = {0: PhasedScalar.one(1), 2: PhasedScalar.zeta(3)}
    with pytest.raises(ValueError, match="multiplicative"):
        character_rep(ClassFunction(K, vals))


def test_induce_rejects_nonsubgroup():
    G = CyclicGroup(6)
    psi = ClassFunction(CyclicGroup(4), {g: PhasedScalar.one(1) for g in range(4)})
    with pytest.raises(ValueError):
        induce_character(psi, G)


def search_matrix(ind, h) -> ExactMatrix:
    """The reference route the coset table replaced: for each block
    column j, try the block rows i in turn until t_i^-1 h t_j is in K."""
    G, n, deg = ind.parent, ind.index, ind.degree
    kset = set(ind.subgroup)
    dim = n * deg
    ents = [PhasedScalar.zero(1)] * (dim * dim)
    for j, tj in enumerate(ind.transversal):
        htj = G.compose(h, tj)
        hits = [G.compose(G.inverse(ti), htj) for ti in ind.transversal]
        rows = [i for i, u in enumerate(hits) if u in kset]
        assert len(rows) == 1
        i = rows[0]
        blk = ind._rho.matrix(hits[i])
        for r in range(deg):
            for c in range(deg):
                e = blk.entries[r * deg + c]
                if e.terms:
                    ents[(i * deg + r) * dim + j * deg + c] = e * blk.scale
    return ExactMatrix(dim, dim, ents)


def _central_induced(d, power=1):
    G, Z, psi = central_character(d, power)
    return induce_representation(character_rep(psi), G)


def _cyclic_induced(n, kelems, fn):
    G = CyclicGroup(n)
    psi = class_function(SubgroupView(G, kelems), fn)
    return induce_representation(character_rep(psi), G)


def _scaled_induced():
    # a 1 x 1 block rep whose matrices carry the scale 1/2, not 1
    G = CyclicGroup(4)
    K = SubgroupView(G, [0, 2])
    rho = ProjectiveRep(K, 1, lambda k: ExactMatrix(
        1, 1, [PhasedScalar.of(1 if k == 0 else -1)], Fraction(1, 2)))
    return induce_representation(rho, G)


INDUCED = {
    "H2-center": lambda: _central_induced(2),
    "H3-center": lambda: _central_induced(3),
    "H5-center^2": lambda: _central_induced(5, 2),
    "Z4-over-0,2": lambda: _cyclic_induced(
        4, [0, 2], lambda k: PhasedScalar.of(1 if k == 0 else -1)),
    "Z6-over-0": lambda: _cyclic_induced(
        6, [0], lambda k: PhasedScalar.one(1)),
    "H3-whole": lambda: induce_representation(
        heisenberg_rep(3), HeisenbergGroup(3)),
    "Z4-over-0,2-scaled": _scaled_induced,
}


@pytest.mark.parametrize("case", sorted(INDUCED))
def test_coset_table_matches_block_search(case):
    ind = INDUCED[case]()
    assert ind.block_structure_ok()
    for h in ind.parent.elements():
        m, ref = ind.matrix(h), search_matrix(ind, h)
        assert m == ref
        assert matrix_to_json(m) == matrix_to_json(ref)


def test_block_reads_compose_once_per_block_column():
    # |H| n = 343 * 49 compositions each, on the representation that
    # analyze induce heisenberg:7 builds
    ind = _central_induced(7)
    G = ind.parent
    calls = []
    compose = G.compose

    def counting(a, b):
        calls.append(1)
        return compose(a, b)

    G.compose = counting
    assert ind.block_structure_ok()
    assert len(calls) == 16_807
    calls.clear()
    for h in G.elements():
        ind.matrix(h)
    assert len(calls) == 16_807


@pytest.mark.parametrize("n, kelems, trans", [
    (4, [0, 2], (0, 2)),        # two representatives of K, n |K| = |H|
    (4, [0, 2], (0,)),          # a coset left out
    (6, [0, 3], (0, 1, 4)),     # 1 and 4 share the coset 1 + K
])
def test_transversal_must_tile_the_group(n, kelems, trans):
    G = CyclicGroup(n)
    psi = class_function(SubgroupView(G, kelems), lambda k: PhasedScalar.one(1))
    with pytest.raises(ValueError, match="tile"):
        InducedRep(G, tuple(kelems), trans, 1, character_rep(psi))


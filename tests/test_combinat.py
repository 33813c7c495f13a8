import pytest

from uebkit.combinat import (
    LatinSquare,
    check_complex_hadamard,
    cyclic_latin,
    fourier_hadamard,
    h_alpha,
    latin_from_json,
    validate_latin,
)
from uebkit.cyclo import PhasedScalar


def test_cyclic_latin_small_values():
    assert cyclic_latin(3).cells == ((0, 1, 2), (2, 0, 1), (1, 2, 0))
    assert cyclic_latin(4).cells == (
        (0, 1, 2, 3), (3, 0, 1, 2), (2, 3, 0, 1), (1, 2, 3, 0))
    assert cyclic_latin(1).cells == ((0,),)


def test_validate_latin():
    for d in range(1, 8):
        assert validate_latin(cyclic_latin(d)).ok
    bad = [list(r) for r in cyclic_latin(3).cells]
    bad[1][1] = bad[1][0]
    chk = validate_latin(bad)
    assert not chk.ok
    assert chk.witness == ("row", 1, 2)
    # column duplicate with all rows fine
    colbad = [[0, 1, 2], [1, 2, 0], [0, 2, 1]]
    chk2 = validate_latin(colbad)
    assert not chk2.ok and chk2.witness[0] == "col"
    with pytest.raises(ValueError):
        validate_latin([[0, 1], [1, 5]])
    with pytest.raises(ValueError):
        LatinSquare(2, ((0, 1),))


def test_fourier_is_hadamard():
    for d in range(1, 7):
        assert check_complex_hadamard(fourier_hadamard(d)).ok
    assert fourier_hadamard(3).is_scaled_unitary() == 3


def test_h_alpha_symbolic_hadamard():
    h = h_alpha()
    assert check_complex_hadamard(h).ok
    # any unit-modulus substitution stays Hadamard
    for v in [PhasedScalar.zeta(4), PhasedScalar.zeta(8, 3), PhasedScalar.of(-1)]:
        assert check_complex_hadamard(h.substitute({"t": v})).ok
    assert not h.is_monomial()


def test_hadamard_rejections():
    from uebkit.exactmat import ExactMatrix
    assert not check_complex_hadamard(ExactMatrix.from_rows([[1, 1], [1, 1]])).ok
    assert not check_complex_hadamard(ExactMatrix.from_rows([[1, 2], [2, -1]])).ok
    assert not check_complex_hadamard(ExactMatrix.zeros(2, 3)).ok


def test_latin_json():
    sq = cyclic_latin(5)
    assert latin_from_json([list(r) for r in sq.cells]) == sq

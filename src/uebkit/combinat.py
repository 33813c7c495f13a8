"""Latin squares and complex Hadamard matrices over exact scalars."""

from __future__ import annotations

from dataclasses import dataclass

from .cyclo import Cyclotomic, PhasedScalar, json_int
from .exactmat import ExactMatrix, matrix_from_json


@dataclass(frozen=True)
class LatinSquare:
    d: int
    cells: tuple[tuple[int, ...], ...]

    def __post_init__(self):
        if self.d < 1:
            raise ValueError(f"latin square order must be positive, got {self.d}")
        if len(self.cells) != self.d or any(len(r) != self.d for r in self.cells):
            raise ValueError("latin square must be d rows of d cells")
        for row in self.cells:
            for v in row:
                if not 0 <= v < self.d:
                    raise ValueError(f"cell symbol {v} out of range 0..{self.d - 1}")

    def __call__(self, i: int, j: int) -> int:
        return self.cells[i][j]


@dataclass(frozen=True)
class LatinCheck:
    ok: bool
    witness: tuple | None   # ("row"|"col", index, symbol) duplicated


def cyclic_latin(d: int) -> LatinSquare:
    """L(i, j) = (j - i) mod d."""
    return LatinSquare(d, tuple(tuple((j - i) % d for j in range(d))
                                for i in range(d)))


def validate_latin(square) -> LatinCheck:
    """Check the Latin property, reporting the first duplicate found."""
    sq = square if isinstance(square, LatinSquare) \
        else LatinSquare(len(square), tuple(tuple(r) for r in square))
    for i in range(sq.d):
        seen = set()
        for v in sq.cells[i]:
            if v in seen:
                return LatinCheck(False, ("row", i, v))
            seen.add(v)
    for j in range(sq.d):
        seen = set()
        for i in range(sq.d):
            v = sq.cells[i][j]
            if v in seen:
                return LatinCheck(False, ("col", j, v))
            seen.add(v)
    return LatinCheck(True, None)


def fourier_hadamard(d: int) -> ExactMatrix:
    """The unnormalized Fourier matrix (zeta_d^(ij)), a complex Hadamard."""
    if d < 1:
        raise ValueError("d must be positive")
    return ExactMatrix.from_rows(
        [[Cyclotomic.zeta(d, i * j) for j in range(d)] for i in range(d)])


PHASE_SYMBOL = "t"


def h_alpha() -> ExactMatrix:
    """The 4x4 Hadamard family with one free phase, kept formal.

    The symbol t stands for an arbitrary unit-modulus number; nothing
    about its multiplicative order is assumed.
    """
    one = PhasedScalar.one()
    t = PhasedScalar.symbol(PHASE_SYMBOL)
    return ExactMatrix.from_rows([
        [one, one, one, one],
        [one, one, -one, -one],
        [one, -one, t, -t],
        [one, -one, -t, t],
    ])


@dataclass(frozen=True)
class HadamardCheck:
    ok: bool
    reason: str | None


def check_complex_hadamard(m: ExactMatrix) -> HadamardCheck:
    """Unit-modulus entries and H H^dagger = d I, both exact."""
    if m.rows != m.cols:
        return HadamardCheck(False, "not square")
    d = m.rows
    for i in range(d):
        for j in range(d):
            v = m.entry(i, j) * m.scale
            if not (v * v.conj()).is_one():
                return HadamardCheck(False, f"entry ({i},{j}) is not unit modulus")
    # each row of H H^dagger times its scale has norm d exactly, as every
    # entry times the scale has unit modulus; H H^dagger is Hermitian, so
    # its first nonzero off-diagonal entry in row-major order has i < j
    p = m @ m.dagger()
    for i in range(d):
        for j in range(i + 1, d):
            if p.entry(i, j).terms:
                return HadamardCheck(False, f"rows {i} and {j} are not orthogonal")
    return HadamardCheck(True, None)


# ---------------------------------------------------------------------------
# JSON: Latin squares as arrays of integer rows, Hadamard sequences as
# arrays of matrix objects.


def latin_from_json(obj) -> LatinSquare:
    rows = [tuple(json_int(v, "a Latin square cell") for v in r) for r in obj]
    return LatinSquare(len(rows), tuple(rows))


def hadamard_seq_from_json(obj) -> list[ExactMatrix]:
    orders: set = set()  # one lcm bound for the whole sequence
    return [matrix_from_json(o, orders) for o in obj]

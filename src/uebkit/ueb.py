"""Unitary error bases: the definition-level checks, the shift-and-
multiply construction, 2x2 normalization, and the wickedness test.

A unitary error basis on C^d is a set of d^2 unitaries, pairwise
orthogonal under the trace inner product.  Two routes produce them
here: group-indexed representations (nice module) and Latin square
plus Hadamard data (shift_and_multiply).  verify_ueb checks the bare
definition and is kept independent of either construction.
"""

from __future__ import annotations

from dataclasses import dataclass
from itertools import combinations

from .combinat import LatinSquare, check_complex_hadamard, validate_latin
from .cyclo import PhasedScalar, json_int
from .exactmat import (
    ExactMatrix,
    _sumprod,
    hs_inner,
    matrix_from_json,
    matrix_to_json,
    monomiality_report,
)
from .nice import ProjectiveRep, pauli_rep


@dataclass
class UnitaryErrorBasis:
    d: int
    members: tuple
    labels: tuple

    def __post_init__(self):
        self.members = tuple(self.members)
        self.labels = tuple(self.labels)
        if len(self.labels) != len(self.members):
            raise ValueError("labels and members differ in length")

    def monomiality(self):
        return monomiality_report(self.members)


@dataclass
class UebReport:
    d: int
    cardinality_ok: bool
    unitary_ok: bool
    orthogonality_ok: bool
    pairs_checked: int
    failures: tuple = ()
    pair_route: str = "matrix"

    @property
    def ok(self) -> bool:
        return self.cardinality_ok and self.unitary_ok and self.orthogonality_ok

    def summary(self) -> dict:
        return {**vars(self), "ok": self.ok,
                "failures": [str(f) for f in self.failures[:8]]}


def verify_ueb(basis: UnitaryErrorBasis) -> UebReport:
    """The definition, with zero tolerance: d^2 unitary members, pairwise
    trace-orthogonal.  Pairs are compared only if every member is d x d.

    pair_route "monomial": every member is unitary and monomial, E[sigma_E[c],
    c] = s_E v_E[c] with s_E its scale.  Then tr(E^dagger F) = s_E s_F sum
    conj(v_E[c]) v_F[c] over the columns c with sigma_E[c] == sigma_F[c],
    the only entries where both are nonzero.  The pair (0, 1) and every pair
    this rejects are re-checked densely, so failures are the dense route's.
    """
    d, members, labels = basis.d, basis.members, basis.labels
    failures = []
    square = all(m.rows == d and m.cols == d for m in members)
    cardinality_ok = square and len(members) == d * d
    if not cardinality_ok:
        failures.append(("cardinality", len(members)))

    unitary_ok = True
    for idx, m in enumerate(members):
        if m.is_scaled_unitary() != 1:
            unitary_ok = False
            failures.append(("unitary", labels[idx]))

    mono = [m.monomial_data() for m in members] if unitary_ok else [None]
    route = "monomial" if square and mono and all(mono) else "matrix"
    conj = route == "monomial" and [[v.conj() for v in vs] for _, vs in mono]

    def orthogonal(i, j):
        if not conj:
            return hs_inner(members[i], members[j]).is_zero()
        acc = _sumprod([(a, b) for s, t, a, b in zip(
            mono[i][0], mono[j][0], conj[i], mono[j][1]) if s == t])
        if (acc.terms or (i, j) == (0, 1)) and \
                hs_inner(members[i], members[j]).is_zero() == bool(acc.terms):
            raise ArithmeticError(
                "monomial data disagrees with the dense inner product of "
                f"members {labels[i]} and {labels[j]}")
        return not acc.terms

    orthogonality_ok = square
    pairs = 0
    for i, j in combinations(range(len(members) if square else 0), 2):
        pairs += 1
        if not orthogonal(i, j):
            orthogonality_ok = False
            failures.append(("orthogonality", labels[i], labels[j]))
            if len(failures) > 32:
                break
    return UebReport(d, cardinality_ok, unitary_ok, orthogonality_ok,
                     pairs, tuple(failures), route)


def basis_from_rep(rep: ProjectiveRep) -> UnitaryErrorBasis:
    if rep.group.order != rep.dim ** 2:
        raise ValueError("index group order must be dim^2")
    return UnitaryErrorBasis(rep.dim, rep.members(), rep.labels())


def pauli_basis(d: int) -> UnitaryErrorBasis:
    return basis_from_rep(pauli_rep(d))


# ---------------------------------------------------------------------------
# shift-and-multiply


def shift_and_multiply(latin: LatinSquare, hadamards) -> UnitaryErrorBasis:
    """Members E_ij acting as E_ij|k> = H^(j)[i,k] |L(j,k)>.

    hadamards is one matrix (used for every j) or a sequence of d; each
    distinct matrix must pass the complex Hadamard check exactly, once.
    """
    chk = validate_latin(latin)
    if not chk.ok:
        raise ValueError(f"latin square violation: {chk.witness}")
    d = latin.d
    if isinstance(hadamards, ExactMatrix):
        hadamards = [hadamards] * d
    hadamards = list(hadamards)
    if len(hadamards) != d:
        raise ValueError(f"need {d} Hadamard matrices, got {len(hadamards)}")
    for j, h in enumerate(hadamards):
        if any(h is g for g in hadamards[:j]):
            continue
        if h.rows != d or h.cols != d:
            raise ValueError(f"Hadamard {j} has wrong shape")
        hc = check_complex_hadamard(h)
        if not hc.ok:
            raise ValueError(f"matrix {j} is not complex Hadamard: {hc.reason}")
    members = []
    labels = []
    for i in range(d):
        for j in range(d):
            h = hadamards[j]
            members.append(ExactMatrix.monomial(
                latin.cells[j], h.entries[i * d:(i + 1) * d], h.scale))
            labels.append((i, j))
    return UnitaryErrorBasis(d, members, labels)


# ---------------------------------------------------------------------------
# 2x2 normalization


class NormalizationError(ValueError):
    pass


@dataclass
class NormalizationResult:
    """canonical.members[k] == scalars[k] * a * input.members[permutation[k]] * b"""
    a: ExactMatrix
    b: ExactMatrix
    scalars: tuple
    permutation: tuple
    canonical: UnitaryErrorBasis


def _mono2(m: ExactMatrix):
    """Classify a 2x2 monomial matrix: ('diag'|'anti', value0, value1)
    with values including the scale, the row-0 value first."""
    mono = m.monomial_data()
    if mono is None:
        return None
    sigma, values = mono
    if sigma[0]:  # antidiagonal: the row-0 value is in column 1
        return "anti", values[1] * m.scale, values[0] * m.scale
    return "diag", values[0] * m.scale, values[1] * m.scale


def normalize_d2(basis: UnitaryErrorBasis) -> NormalizationResult:
    """Bring a 2x2 basis to the canonical set {I, Z, X, ZX} exactly.

    Works whenever left-dividing by the first member leaves monomial
    matrices whose phases admit exact square roots (true for any basis
    built from the canonical one by monomial equivalence).  Dense
    members would need eigenvector normalization over a field
    extension, which this exact layer refuses.
    """
    if basis.d != 2 or len(basis.members) != 4:
        raise NormalizationError("normalize_d2 expects a 2x2 basis of 4 members")
    u0 = basis.members[0]
    lead = u0.dagger()
    v = [lead @ m for m in basis.members]

    kinds = []
    for m in v[1:]:
        k = _mono2(m)
        if k is None:
            raise NormalizationError(
                "members are not monomial after left normalization; exact "
                "eigen-normalization would require a field extension")
        kinds.append(k)
    diag_idx = [i for i, k in enumerate(kinds) if k[0] == "diag"]
    anti_idx = [i for i, k in enumerate(kinds) if k[0] == "anti"]
    if len(diag_idx) != 1 or len(anti_idx) != 2:
        raise NormalizationError("unexpected pattern split after normalization")

    i_d = diag_idx[0]
    a_val = kinds[i_d][1]                       # diag(a, -a) up to check below
    if not (kinds[i_d][2] == -a_val):
        raise NormalizationError("diagonal member is not traceless")
    i_a, i_b = anti_idx
    b_val, c_val = kinds[i_a][1], kinds[i_a][2]     # antidiag(b, c)
    try:
        c_d = a_val.inverse()
        s = (c_val * b_val.inverse()).unit_sqrt()
        c_a = (b_val * s).inverse()
        c_b = (kinds[i_b][1] * s).inverse()         # after conjugation by w
    except (ValueError, ZeroDivisionError) as e:
        raise NormalizationError(f"exact phase arithmetic failed: {e}") from e
    one = PhasedScalar.one(1)
    w = ExactMatrix.diagonal([one, s])

    a_mat = w.dagger() @ lead
    b_mat = w
    scalars = (one, c_d, c_a, c_b)
    perm = (0, i_d + 1, i_a + 1, i_b + 1)

    target_z = ExactMatrix.diagonal([one, -one])
    target_x = ExactMatrix.from_rows([[0, 1], [1, 0]])
    target_zx = ExactMatrix.from_rows([[0, 1], [-1, 0]])
    targets = (ExactMatrix.identity(2), target_z, target_x, target_zx)
    for t, c, p in zip(targets, scalars, perm):
        got = (a_mat @ basis.members[p] @ b_mat).scalar_mul(c)
        if not (got == t):
            raise NormalizationError("normalization postcondition failed")
    canonical = UnitaryErrorBasis(2, targets, ("I", "Z", "X", "ZX"))
    return NormalizationResult(a_mat, b_mat, scalars, perm, canonical)


def apply_equivalence(basis: UnitaryErrorBasis, a: ExactMatrix, b: ExactMatrix,
                      scalars, permutation) -> UnitaryErrorBasis:
    """Members scalars[k] * a * members[permutation[k]] * b, same labels."""
    members = [(a @ basis.members[p] @ b).scalar_mul(c)
               for c, p in zip(scalars, permutation)]
    return UnitaryErrorBasis(basis.d, members, basis.labels)


# ---------------------------------------------------------------------------
# wickedness


@dataclass
class WickednessWitness:
    pair: tuple                 # labels (i, j) of the two members
    diagonal: tuple             # diagonal values of E F^dagger
    ratio: PhasedScalar         # a diagonal ratio with no finite order
    ratio_position: int

    def summary(self) -> dict:
        return {"pair": [str(x) for x in self.pair],
                "diagonal": [repr(x) for x in self.diagonal],
                "ratio": repr(self.ratio),
                "ratio_position": self.ratio_position}


def wickedness_witness(basis: UnitaryErrorBasis, assume_verified: bool = False):
    """Search member pairs for a diagonal E F^dagger whose diagonal-entry
    ratios include a value of infinite multiplicative order.

    One-sided: a witness certifies the basis is not equivalent to any
    group-indexed one; absence of a witness certifies nothing.

    Monomial pairs need no product: E F^dagger = s_E s_F sum_c v_E[c]
    conj(v_F[c]) |sigma_E[c]><sigma_F[c]| (all terms nonzero) is diagonal
    exactly when sigma_E = sigma_F, with the dense route's operands at row
    sigma[c].  A pair with one monomial member is never diagonal: E F^dagger
    = D forces F^dagger = E^-1 D, D invertible as the members are unitary.
    A witness from monomial data is re-checked against the dense product.
    """
    if not assume_verified:
        rep = verify_ueb(basis)
        if not rep.ok:
            raise ValueError("wickedness search expects a verified basis")
    members = basis.members
    mono = [m.monomial_data() for m in members]
    conj = [data and [v.conj() for v in data[1]] for data in mono]
    n = len(members)
    for j in range(n):
        for i in range(n):
            mi, mj = mono[i], mono[j]
            if i == j or (mi is None) != (mj is None):
                continue
            if mi:
                if mi[0] != mj[0]:
                    continue
                scale = members[i].scale * members[j].scale
                diag = [None] * len(mi[0])
                for s, a, b in zip(mi[0], mi[1], conj[j]):
                    diag[s] = a * b if scale == 1 else (a * b) * scale
            elif (diag := _diagonal(members[i] @ members[j].dagger())) is None:
                continue
            try:
                inv = diag[0].inverse()
            except (ValueError, ZeroDivisionError):  # zero or multi-term
                continue
            for k in range(1, len(diag)):
                r = diag[k] * inv
                if r.root_of_unity_order() is None:
                    if mi and _diagonal(members[i] @ members[j].dagger()) != diag:
                        raise ArithmeticError(
                            "monomial data disagrees with the product of "
                            f"members {basis.labels[i]} and {basis.labels[j]}")
                    return WickednessWitness(
                        pair=(basis.labels[i], basis.labels[j]),
                        diagonal=tuple(diag), ratio=r, ratio_position=k)
    return None


def _diagonal(p: ExactMatrix):
    """The diagonal of p times its scale if p is diagonal, else None."""
    d = p.rows
    if any(p.entries[r * d + c].terms
           for r in range(d) for c in range(d) if r != c):
        return None
    return [p.entries[k * d + k] * p.scale for k in range(d)]


# ---------------------------------------------------------------------------
# JSON


def _label_to_json(lab):
    if isinstance(lab, tuple):
        return [_label_to_json(x) for x in lab]
    return lab


def _label_from_json(lab):
    if isinstance(lab, list):
        return tuple(_label_from_json(x) for x in lab)
    return lab


def basis_to_json(basis: UnitaryErrorBasis) -> dict:
    return {"d": basis.d,
            "members": [matrix_to_json(m) for m in basis.members],
            "labels": [_label_to_json(l) for l in basis.labels]}


def basis_from_json(obj: dict) -> UnitaryErrorBasis:
    orders: set = set()  # one lcm bound for all members
    return basis_from_fields(obj, lambda m: matrix_from_json(m, orders))


def basis_from_fields(obj: dict, member) -> UnitaryErrorBasis:
    """basis_from_json(obj), with member(m) for each m in obj["members"]."""
    d = json_int(obj["d"], "'d'")
    if d < 1:
        raise ValueError(f"dimension 'd' must be positive, not {d}")
    return UnitaryErrorBasis(
        d,
        tuple(member(m) for m in obj["members"]),
        tuple(_label_from_json(l) for l in obj["labels"]))

"""Exact-arithmetic construction and verification of unitary error bases.

The modules split along the objects they own:

  cyclo             cyclotomic numbers and phased scalars, no floats
  exactmat          dense matrices over phased scalars
  fastcyc           packed integer arrays (numpy), a reference route for tests
  combinat          Latin squares and complex Hadamard matrices
  groups            finite groups: cyclic, Heisenberg, SL2, products
  nice              projective representations and the niceness checks
  ueb               basis definition checks, shift-and-multiply, wickedness
  induce            induced characters and representations
  counterexample165 the dimension-165 nonmonomial nice error basis
  cli               command line front end over all of the above
"""

from .combinat import (
    LatinSquare,
    check_complex_hadamard,
    cyclic_latin,
    fourier_hadamard,
    h_alpha,
    validate_latin,
)
from .counterexample165 import (
    build_g165,
    export_bundle,
    verify_counterexample,
)
from .cyclo import Cyclotomic, PhasedScalar
from .exactmat import ExactMatrix, hs_inner, monomiality_report
from .induce import (
    induce_character,
    induce_representation,
    sparsity_check,
)
from .nice import (
    ProjectiveRep,
    heisenberg_rep,
    pauli_rep,
    verify_nice,
)
from .ueb import (
    UnitaryErrorBasis,
    basis_from_json,
    basis_from_rep,
    basis_to_json,
    normalize_d2,
    pauli_basis,
    shift_and_multiply,
    verify_ueb,
    wickedness_witness,
)

__all__ = [
    "Cyclotomic",
    "ExactMatrix",
    "LatinSquare",
    "PhasedScalar",
    "ProjectiveRep",
    "UnitaryErrorBasis",
    "basis_from_json",
    "basis_from_rep",
    "basis_to_json",
    "build_g165",
    "check_complex_hadamard",
    "cyclic_latin",
    "export_bundle",
    "fourier_hadamard",
    "h_alpha",
    "heisenberg_rep",
    "hs_inner",
    "induce_character",
    "induce_representation",
    "monomiality_report",
    "normalize_d2",
    "pauli_basis",
    "pauli_rep",
    "shift_and_multiply",
    "sparsity_check",
    "validate_latin",
    "verify_counterexample",
    "verify_nice",
    "verify_ueb",
    "wickedness_witness",
]

__version__ = "0.1.0"

"""Exact Schubert calculus on generalized flag manifolds G/P.

The package computes, over the integers and from nothing but a Cartan
matrix:

* Weyl groups, their length-graded minimal coset representatives, and the
  Schubert-class bases they index;
* structure constants of the Schubert basis via a triangular operator on
  multilinear forms attached to reduced words;
* Schubert presentations of integral cohomology rings: minimal generators,
  minimal relations, Giambelli polynomials, Gysin tables of circle bundles,
  Weyl-orbit characteristic classes, and the assembly of a full-flag
  presentation from a fibration.
"""

from .cartan import LieType, cartan_matrix, reflect_weight
from .characteristics import (
    SchubertClass,
    SchubertExpansion,
    characteristic,
    expand_class_monomial,
    expand_pair,
    expand_product,
    multiply_vec_by_class,
)
from .cohomology import (
    Generator,
    GeneratorSet,
    GysinTable,
    Presentation,
    assemble_full_flag,
    elementary_symmetric,
    expand_polynomial,
    giambelli,
    graded_ideal_span,
    gysin_analysis,
    invariant_on_parabolic,
    minimal_generators,
    minimal_relations,
    relation_kernel,
    restrict_to_parabolic,
    rewrite_in_generators,
    structure_matrix,
    weight_orbit,
    weight_polynomial,
    weight_ring,
    weyl_orbit_invariants,
)
from .intlinalg import (
    AbelianGroupStructure,
    SparseIntLattice,
    cokernel_structure,
    determinant,
    diagonalize_with_unit_minor,
    hermite_with_transform,
    kernel_basis,
    smith_with_transforms,
    solve_left,
    unimodular_inverse,
)
from .intpoly import (
    IntPolynomial,
    PolyRing,
    monomial_exponents,
    parse_polynomial,
)
from .triangular import (
    StrictUpperMatrix,
    cartan_matrix_of_word,
    evaluate_exponents,
)
from .weyl import (
    CosetTable,
    EnumerationLimit,
    WeylElement,
    enumerate_cosets,
)

__version__ = "0.1.0"

__all__ = [
    "AbelianGroupStructure",
    "CosetTable",
    "EnumerationLimit",
    "Generator",
    "GeneratorSet",
    "GysinTable",
    "IntPolynomial",
    "LieType",
    "PolyRing",
    "Presentation",
    "SchubertClass",
    "SchubertExpansion",
    "SparseIntLattice",
    "StrictUpperMatrix",
    "WeylElement",
    "assemble_full_flag",
    "cartan_matrix",
    "cartan_matrix_of_word",
    "characteristic",
    "cokernel_structure",
    "determinant",
    "diagonalize_with_unit_minor",
    "elementary_symmetric",
    "enumerate_cosets",
    "evaluate_exponents",
    "expand_class_monomial",
    "expand_pair",
    "expand_polynomial",
    "expand_product",
    "giambelli",
    "graded_ideal_span",
    "gysin_analysis",
    "hermite_with_transform",
    "invariant_on_parabolic",
    "kernel_basis",
    "minimal_generators",
    "minimal_relations",
    "monomial_exponents",
    "multiply_vec_by_class",
    "parse_polynomial",
    "reflect_weight",
    "relation_kernel",
    "restrict_to_parabolic",
    "rewrite_in_generators",
    "smith_with_transforms",
    "solve_left",
    "structure_matrix",
    "unimodular_inverse",
    "weight_orbit",
    "weight_polynomial",
    "weight_ring",
    "weyl_orbit_invariants",
]

"""Translation validation of synthesized programs (paper Section 7).

A synthesized LambdaCAD program is correct when, unrolled back to flat CSG,
it denotes the same solid as the input.  :func:`validate_synthesis` unrolls
it and accepts it when one of three structural checks, tried cheapest first,
finds it equal to the input modulo a numeric tolerance:

* :func:`terms_equal_modulo_epsilon` — exact structural equality (catches
  the common case where unrolling reproduces the input verbatim);
* :func:`equivalent_modulo_reordering` — equality of union/intersection
  operand multisets, recursively (synthesis is free to reorder commutative
  operands, e.g. after list sorting);
* :func:`leaf_matrix_equivalent` — equality of leaf-matrix normal forms:
  every affine layer pushed down to the primitive it places and composed
  into one matrix per leaf, union/intersection chains flattened into operand
  sets, ``Diff`` sides kept (synthesis is free to reorder affine layers and
  to lift a layer shared by a list's elements over their union).

:func:`occupancy_agreement` samples both solids on a shared grid and bounds
their Hausdorff distance.  It is a diagnostic that callers run themselves:
a sampled grid can miss a moved or dropped solid, so validation never
consults it.
"""

from repro.verify.structural import (
    LeafMatcher,
    terms_equal_modulo_epsilon,
    equivalent_modulo_reordering,
    leaf_matrix_equivalent,
    leaf_normal_form,
)
from repro.verify.geometric import (
    geometrically_equivalent,
    occupancy_agreement,
    GeometricReport,
)
from repro.verify.validate import validate_synthesis, ValidationResult

__all__ = [
    "LeafMatcher",
    "terms_equal_modulo_epsilon",
    "equivalent_modulo_reordering",
    "leaf_matrix_equivalent",
    "leaf_normal_form",
    "geometrically_equivalent",
    "occupancy_agreement",
    "GeometricReport",
    "validate_synthesis",
    "ValidationResult",
]

"""Validation of flat CSG terms against the grammar of paper Fig. 6 (right).

A *flat* CSG contains only primitives, affine transformations with literal
numeric vectors, binary boolean operators, and (optionally) ``External``
placeholders.  Anything from the LambdaCAD extension — lists, folds, maps,
functions, variables — makes a term non-flat.
"""

from __future__ import annotations

from repro.csg.ops import AFFINE_OPS, BOOLEAN_OPS, CSG_PRIMITIVES, EXTERNAL_OP
from repro.lang.term import Term


class CsgValidationError(ValueError):
    """Raised when a term is not a well-formed flat CSG."""


def validate_flat_csg(term: Term, *, allow_external: bool = True) -> None:
    """Raise :class:`CsgValidationError` unless ``term`` is flat CSG.

    The walk is an explicit pre-order stack, so a union of thousands of
    solids validates without deep recursion; the first violation in
    left-to-right pre-order is the one reported.
    """
    pending = [term]
    while pending:
        node = pending.pop()
        op = node.op

        if isinstance(op, (int, float)):
            raise CsgValidationError(
                f"numeric literal {op!r} cannot appear as a solid expression"
            )

        if op in CSG_PRIMITIVES:
            if node.children:
                raise CsgValidationError(f"primitive {op} must not have children")
            continue

        if op == EXTERNAL_OP:
            if not allow_external:
                raise CsgValidationError("External placeholders are not allowed here")
            continue

        if op in AFFINE_OPS:
            if len(node.children) != 4:
                raise CsgValidationError(
                    f"{op} expects 4 arguments (x, y, z, child), got {len(node.children)}"
                )
            for index, child in enumerate(node.children[:3]):
                if not child.is_number:
                    raise CsgValidationError(
                        f"{op} argument {index} must be a numeric literal, got {child.op!r}"
                    )
            pending.append(node.children[3])
            continue

        if op in BOOLEAN_OPS:
            if len(node.children) != 2:
                raise CsgValidationError(
                    f"{op} expects 2 arguments, got {len(node.children)}"
                )
            pending.extend(reversed(node.children))
            continue

        raise CsgValidationError(f"operator {op!r} is not part of the flat CSG language")


def is_flat_csg(term: Term, *, allow_external: bool = True) -> bool:
    """Boolean form of :func:`validate_flat_csg`."""
    try:
        validate_flat_csg(term, allow_external=allow_external)
    except CsgValidationError:
        return False
    return True

"""Point-membership classification for CSG terms.

The cleanest executable semantics of a CSG term is its characteristic
function: given a point in R^3, is the point inside the solid?  Boolean
operators are exactly the set operations on these characteristic functions,
and affine transformations act by pulling points back through the inverse
transform.  This module compiles a CSG :class:`~repro.lang.term.Term` into
such a predicate; the verification layer's occupancy-grid diagnostic and
the tests use it to compare solids point by point, independently of how
their terms are spelled.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Callable, List

from repro.geometry.mat import AffineMatrix
from repro.geometry.primitives import PRIMITIVE_MEMBERSHIP
from repro.geometry.vec import Vec3
from repro.lang.term import Term


class GeometryError(ValueError):
    """Raised when a term cannot be interpreted geometrically."""


def _vector_from_args(term: Term) -> Vec3:
    values: List[float] = []
    for child in term.children[:3]:
        if not child.is_number:
            raise GeometryError(
                f"{term.op} expects numeric vector arguments, got {child.op!r}"
            )
        values.append(float(child.value))
    return Vec3.of(values)


def affine_matrix(term: Term) -> AffineMatrix:
    """The matrix of one ``Translate``/``Scale``/``Rotate`` node with literal arguments."""
    vector = _vector_from_args(term)
    if term.op == "Translate":
        return AffineMatrix.translation(vector)
    if term.op == "Scale":
        return AffineMatrix.scaling(vector)
    if term.op == "Rotate":
        return AffineMatrix.rotation(vector)
    raise GeometryError(f"not an affine operator: {term.op!r}")


@dataclass
class CsgSolid:
    """A compiled CSG solid: a membership predicate plus a loose bound."""

    contains: Callable[[Vec3], bool]
    bound_min: Vec3
    bound_max: Vec3

    def bounding_box(self):
        return (self.bound_min, self.bound_max)


def _combine_bounds(kind: str, left: CsgSolid, right: CsgSolid):
    if kind == "Union":
        lo = Vec3(
            min(left.bound_min.x, right.bound_min.x),
            min(left.bound_min.y, right.bound_min.y),
            min(left.bound_min.z, right.bound_min.z),
        )
        hi = Vec3(
            max(left.bound_max.x, right.bound_max.x),
            max(left.bound_max.y, right.bound_max.y),
            max(left.bound_max.z, right.bound_max.z),
        )
        return lo, hi
    if kind == "Inter":
        lo = Vec3(
            max(left.bound_min.x, right.bound_min.x),
            max(left.bound_min.y, right.bound_min.y),
            max(left.bound_min.z, right.bound_min.z),
        )
        hi = Vec3(
            min(left.bound_max.x, right.bound_max.x),
            min(left.bound_max.y, right.bound_max.y),
            min(left.bound_max.z, right.bound_max.z),
        )
        return lo, hi
    # Diff: bounded by the left operand.
    return left.bound_min, left.bound_max


def _transform_bounds(matrix: AffineMatrix, lo: Vec3, hi: Vec3):
    """Transform an AABB and re-box it (conservative)."""
    corners = [
        Vec3(x, y, z)
        for x in (lo.x, hi.x)
        for y in (lo.y, hi.y)
        for z in (lo.z, hi.z)
    ]
    moved = [matrix.apply(c) for c in corners]
    xs = [p.x for p in moved]
    ys = [p.y for p in moved]
    zs = [p.z for p in moved]
    return Vec3(min(xs), min(ys), min(zs)), Vec3(max(xs), max(ys), max(zs))


def compile_csg(term: Term) -> CsgSolid:
    """Compile a CSG term into a :class:`CsgSolid`.

    Affine nodes are handled by precomposing the *inverse* transform onto the
    child's membership test; boolean nodes combine child predicates.
    Unsupported operators (e.g. ``External`` placeholders for Hull/Mirror)
    are treated as empty solids so validation can still proceed on the
    supported portion, mirroring the paper's handling of ``External``.
    """
    op = term.op
    if isinstance(op, str) and op in PRIMITIVE_MEMBERSHIP:
        predicate = PRIMITIVE_MEMBERSHIP[op]
        if op == "Empty":
            return CsgSolid(predicate, Vec3.zero(), Vec3.zero())
        return CsgSolid(predicate, Vec3(-1.0, -1.0, -1.0), Vec3(1.0, 1.0, 1.0))

    if op in ("Translate", "Scale", "Rotate"):
        child = compile_csg(term.children[3])
        matrix = affine_matrix(term)
        inverse = matrix.inverse()
        child_contains = child.contains

        def contains(point: Vec3, _inv=inverse, _child=child_contains) -> bool:
            return _child(_inv.apply(point))

        lo, hi = _transform_bounds(matrix, child.bound_min, child.bound_max)
        return CsgSolid(contains, lo, hi)

    if op in ("Union", "Diff", "Inter"):
        left = compile_csg(term.children[0])
        right = compile_csg(term.children[1])
        if op == "Union":
            def contains(point: Vec3, _l=left.contains, _r=right.contains) -> bool:
                return _l(point) or _r(point)
        elif op == "Inter":
            def contains(point: Vec3, _l=left.contains, _r=right.contains) -> bool:
                return _l(point) and _r(point)
        else:
            def contains(point: Vec3, _l=left.contains, _r=right.contains) -> bool:
                return _l(point) and not _r(point)
        lo, hi = _combine_bounds(op, left, right)
        return CsgSolid(contains, lo, hi)

    if op == "External":
        # Placeholder for unsupported features (Hull, Mirror); geometrically
        # treated as empty so the rest of the model can still be compared.
        return CsgSolid(lambda _p: False, Vec3.zero(), Vec3.zero())

    raise GeometryError(f"cannot interpret operator {op!r} as CSG geometry")


def csg_contains(term: Term, point: Vec3) -> bool:
    """Convenience wrapper: does the CSG solid denoted by ``term`` contain ``point``?"""
    return compile_csg(term).contains(point)

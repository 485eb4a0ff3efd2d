"""Point-membership classification for CSG terms.

The cleanest executable semantics of a CSG term is its characteristic
function: given a point in R^3, is the point inside the solid?  Boolean
operators are exactly the set operations on these characteristic functions,
and affine transformations act by pulling points back through the inverse
transform.  This module compiles a CSG :class:`~repro.lang.term.Term` into
such a predicate; the verification layer's occupancy-grid diagnostic and
the tests use it to compare solids point by point, independently of how
their terms are spelled.  :func:`affine_matrix` gives the matrix of one
affine node, which the structural validator composes into leaf matrices.

Primitives follow the paper's canonical convention (Section 2): unit size,
centred at the origin, principal axes along x/y/z.  ``Unit``/``Cube`` is
the unit cube, ``Cylinder`` has radius 1 and height 1 along z, ``Sphere``
has radius 1, ``Hexagon`` is a hexagonal prism of circumradius 1 and
height 1 with its vertices at 30 + k*60 degrees, and ``Empty`` is empty.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import Callable, Dict, List

from repro.geometry.mat import AffineMatrix
from repro.geometry.vec import Vec3
from repro.lang.term import Term


class GeometryError(ValueError):
    """Raised when a term cannot be interpreted geometrically."""


def _contains_cube(p: Vec3) -> bool:
    return abs(p.x) <= 0.5 and abs(p.y) <= 0.5 and abs(p.z) <= 0.5


def _contains_cylinder(p: Vec3) -> bool:
    return p.x * p.x + p.y * p.y <= 1.0 and abs(p.z) <= 0.5


def _contains_sphere(p: Vec3) -> bool:
    return p.x * p.x + p.y * p.y + p.z * p.z <= 1.0


def _contains_hexagon(p: Vec3) -> bool:
    """Regular hexagonal prism with circumradius 1, flat sides facing +-x."""
    if abs(p.z) > 0.5:
        return False
    x, y = abs(p.x), abs(p.y)
    apothem = math.sqrt(3.0) / 2.0
    # Hexagon with vertices on the y axis at distance 1; edges at 60 degrees.
    return x <= apothem and (apothem * y + 0.5 * x) <= apothem


def _contains_empty(_p: Vec3) -> bool:
    return False


_PRIMITIVE_MEMBERSHIP: Dict[str, Callable[[Vec3], bool]] = {
    "Empty": _contains_empty,
    "Unit": _contains_cube,
    "Cube": _contains_cube,
    "Cylinder": _contains_cylinder,
    "Sphere": _contains_sphere,
    "Hexagon": _contains_hexagon,
}


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
    if isinstance(op, str) and op in _PRIMITIVE_MEMBERSHIP:
        predicate = _PRIMITIVE_MEMBERSHIP[op]
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

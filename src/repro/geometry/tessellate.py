"""Tessellation of CSG terms to triangle meshes.

This is the "compile a CAD program to a mesh" direction of the computational
fabrication workflow described in the paper's introduction, and is what lets
the reproduction write out STL files.  Union is exact triangle-soup merging;
``Diff`` and ``Inter`` produce a conservative soup that includes both
operands' boundaries (sufficient for visualization and for simulating the
shape of mesh-decompiler inputs, and flagged as approximate — exact boolean
surface extraction is not needed anywhere in the paper's pipeline, whose
validation compares CSG terms structurally).
"""

from __future__ import annotations

from repro.geometry.membership import GeometryError, affine_matrix
from repro.geometry.mesh import Mesh
from repro.geometry.primitives import PRIMITIVE_TESSELLATORS
from repro.lang.term import Term


def tessellate_csg(term: Term, *, segments: int = 32) -> Mesh:
    """Tessellate a flat CSG term to a triangle mesh."""
    op = term.op
    if isinstance(op, str) and op in PRIMITIVE_TESSELLATORS:
        if op == "Cylinder":
            from repro.geometry.primitives import tessellate_cylinder

            return tessellate_cylinder(segments)
        return PRIMITIVE_TESSELLATORS[op]()

    if op in ("Translate", "Scale", "Rotate"):
        child = tessellate_csg(term.children[3], segments=segments)
        return child.transformed(affine_matrix(term))

    if op in ("Union", "Diff", "Inter"):
        left = tessellate_csg(term.children[0], segments=segments)
        right = tessellate_csg(term.children[1], segments=segments)
        return left.merged(right)

    if op == "External":
        return Mesh.empty()

    raise GeometryError(f"cannot tessellate operator {op!r}")

"""Geometry kernel: affine matrices and the occupancy-grid diagnostic.

:mod:`repro.geometry.vec` and :mod:`repro.geometry.mat` give 3D vectors and
affine matrices; the structural validator composes leaf matrices from
:func:`repro.geometry.membership.affine_matrix`.  The rest is the sampled
comparison the paper's Section 7 suggests: point-membership classification
of CSG solids, grid sampling and a sampled (directed and symmetric)
Hausdorff distance.  :mod:`repro.verify.geometric` runs it as a diagnostic,
and the tests use it as an oracle independent of how terms are spelled.

Nothing here writes a mesh: the exact way from a synthesized program to
something printable is :func:`repro.scad.emit.emit_openscad`, rendered by
OpenSCAD.
"""

from repro.geometry.vec import Vec3
from repro.geometry.mat import AffineMatrix
from repro.geometry.membership import csg_contains, CsgSolid
from repro.geometry.sampling import sample_grid
from repro.geometry.hausdorff import hausdorff_distance, directed_hausdorff

__all__ = [
    "Vec3",
    "AffineMatrix",
    "csg_contains",
    "CsgSolid",
    "sample_grid",
    "hausdorff_distance",
    "directed_hausdorff",
]

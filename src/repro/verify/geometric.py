"""Geometric comparison of CSG terms via sampling.

The "more rigorous approach like Hausdorff distance" the paper suggests:
both solids are compared on a shared occupancy grid (how many grid cells
agree on inside/outside) and via the symmetric Hausdorff distance between
the occupied cell centres.  A grid only samples the solids: a solid moved
by less than a cell, or one that falls between grid points, goes unseen.
So :func:`repro.verify.validate_synthesis` reports it as a diagnostic, on
request, and decides validity by its structural checks alone.
"""

from __future__ import annotations

from dataclasses import dataclass

from repro.geometry.hausdorff import hausdorff_distance
from repro.geometry.membership import compile_csg
from repro.geometry.sampling import joint_bounding_box, sample_grid
from repro.geometry.vec import Vec3
from repro.lang.term import Term


@dataclass(frozen=True)
class GeometricReport:
    """Outcome of a sampled geometric comparison."""

    agreement: float          # fraction of grid points with equal membership
    hausdorff: float          # symmetric Hausdorff distance of occupied points
    grid_spacing: float       # spacing of the sampling grid (Hausdorff scale)
    points_a: int
    points_b: int

    def equivalent(self, *, min_agreement: float = 0.999, hausdorff_factor: float = 2.0) -> bool:
        """Accept when agreement is near-total and Hausdorff within a couple of cells."""
        if self.points_a == 0 and self.points_b == 0:
            return True
        return (
            self.agreement >= min_agreement
            and self.hausdorff <= hausdorff_factor * self.grid_spacing
        )


def occupancy_agreement(a: Term, b: Term, *, resolution: int = 24) -> GeometricReport:
    """Compare two CSG terms on a shared occupancy grid."""
    solid_a = compile_csg(a)
    solid_b = compile_csg(b)
    lo, hi = joint_bounding_box(solid_a, solid_b)
    grid = sample_grid(lo, hi, resolution)
    inside_a = []
    inside_b = []
    agree = 0
    for point in grid:
        in_a = solid_a.contains(point)
        in_b = solid_b.contains(point)
        if in_a == in_b:
            agree += 1
        if in_a:
            inside_a.append(point)
        if in_b:
            inside_b.append(point)
    extent = hi - lo
    spacing = max(extent.x, extent.y, extent.z) / resolution
    distance = hausdorff_distance(inside_a, inside_b) if (inside_a or inside_b) else 0.0
    return GeometricReport(
        agreement=agree / len(grid) if grid else 1.0,
        hausdorff=distance,
        grid_spacing=spacing,
        points_a=len(inside_a),
        points_b=len(inside_b),
    )


def geometrically_equivalent(
    a: Term,
    b: Term,
    *,
    resolution: int = 24,
    min_agreement: float = 0.999,
    hausdorff_factor: float = 2.0,
) -> bool:
    """True when the two solids agree on the sampling grid."""
    report = occupancy_agreement(a, b, resolution=resolution)
    return report.equivalent(
        min_agreement=min_agreement, hausdorff_factor=hausdorff_factor
    )

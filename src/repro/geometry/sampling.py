"""Point sampling of CSG solids.

The occupancy-grid diagnostic compares two solids by sampling: a regular
grid over the joint bounding box gives each solid's interior occupancy set.
The grid is deterministic so that tests and benchmarks are reproducible.
"""

from __future__ import annotations

from typing import List, Tuple

from repro.geometry.membership import CsgSolid, compile_csg
from repro.geometry.vec import Vec3
from repro.lang.term import Term


def sample_grid(
    lo: Vec3, hi: Vec3, resolution: int = 16
) -> List[Vec3]:
    """A regular ``resolution^3`` grid of points spanning the box [lo, hi]."""
    if resolution < 1:
        raise ValueError("resolution must be at least 1")
    points: List[Vec3] = []
    for ix in range(resolution):
        for iy in range(resolution):
            for iz in range(resolution):
                fx = (ix + 0.5) / resolution
                fy = (iy + 0.5) / resolution
                fz = (iz + 0.5) / resolution
                points.append(
                    Vec3(
                        lo.x + fx * (hi.x - lo.x),
                        lo.y + fy * (hi.y - lo.y),
                        lo.z + fz * (hi.z - lo.z),
                    )
                )
    return points


def joint_bounding_box(a: CsgSolid, b: CsgSolid, padding: float = 0.05) -> Tuple[Vec3, Vec3]:
    """The padded union of two solids' bounding boxes."""
    lo = Vec3(
        min(a.bound_min.x, b.bound_min.x),
        min(a.bound_min.y, b.bound_min.y),
        min(a.bound_min.z, b.bound_min.z),
    )
    hi = Vec3(
        max(a.bound_max.x, b.bound_max.x),
        max(a.bound_max.y, b.bound_max.y),
        max(a.bound_max.z, b.bound_max.z),
    )
    extent = hi - lo
    pad = Vec3(
        max(extent.x * padding, 1e-6),
        max(extent.y * padding, 1e-6),
        max(extent.z * padding, 1e-6),
    )
    return lo - pad, hi + pad


def occupancy_points(term: Term, grid: List[Vec3]) -> List[Vec3]:
    """The subset of ``grid`` points contained in the CSG solid of ``term``."""
    solid = compile_csg(term)
    return [p for p in grid if solid.contains(p)]


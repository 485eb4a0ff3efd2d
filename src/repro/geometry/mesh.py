"""Triangle meshes.

Triangle meshes (STL) are both the *origin* of the paper's flat CSG inputs
(meshes are decompiled to CSG by prior work) and the *target* of its
verification step (render both programs, compare).  We keep meshes as a flat
list of triangles, which is exactly what STL stores, and provide the handful
of operations the reproduction needs: transformation, merging, bounding
boxes, surface area, and point sampling hooks.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field
from typing import Iterator, List, Sequence, Tuple

from repro.geometry.mat import AffineMatrix
from repro.geometry.vec import Vec3


@dataclass(frozen=True)
class Triangle:
    """A single oriented triangle."""

    a: Vec3
    b: Vec3
    c: Vec3

    def normal(self) -> Vec3:
        """Unit normal (right-hand rule); zero-area triangles get a zero normal."""
        n = (self.b - self.a).cross(self.c - self.a)
        length = n.norm()
        if length == 0.0:
            return Vec3.zero()
        return n / length

    def area(self) -> float:
        return (self.b - self.a).cross(self.c - self.a).norm() / 2.0

    def centroid(self) -> Vec3:
        return (self.a + self.b + self.c) / 3.0

    def transformed(self, matrix: AffineMatrix) -> "Triangle":
        return Triangle(matrix.apply(self.a), matrix.apply(self.b), matrix.apply(self.c))

    def vertices(self) -> Tuple[Vec3, Vec3, Vec3]:
        return (self.a, self.b, self.c)

    def sample_points(self, count: int) -> List[Vec3]:
        """Deterministically sample ``count`` points on the triangle.

        Uses a low-discrepancy barycentric lattice so validation is
        reproducible without a random seed.
        """
        points: List[Vec3] = []
        if count <= 0:
            return points
        golden = 0.6180339887498949
        for i in range(count):
            u = (i * golden) % 1.0
            v = ((i + 1) * golden * golden) % 1.0
            if u + v > 1.0:
                u, v = 1.0 - u, 1.0 - v
            w = 1.0 - u - v
            points.append(self.a * w + self.b * u + self.c * v)
        return points


@dataclass
class Mesh:
    """A triangle soup with convenience constructors and queries."""

    triangles: List[Triangle] = field(default_factory=list)

    # -- construction ----------------------------------------------------------

    @staticmethod
    def empty() -> "Mesh":
        return Mesh([])

    def merged(self, other: "Mesh") -> "Mesh":
        return Mesh(self.triangles + other.triangles)

    def transformed(self, matrix: AffineMatrix) -> "Mesh":
        return Mesh([t.transformed(matrix) for t in self.triangles])

    def add_quad(self, a: Vec3, b: Vec3, c: Vec3, d: Vec3) -> None:
        """Add a planar quad as two triangles (a, b, c, d counter-clockwise)."""
        self.triangles.append(Triangle(a, b, c))
        self.triangles.append(Triangle(a, c, d))

    # -- queries ---------------------------------------------------------------

    def __len__(self) -> int:
        return len(self.triangles)

    def __iter__(self) -> Iterator[Triangle]:
        return iter(self.triangles)

    def is_empty(self) -> bool:
        return not self.triangles

    def surface_area(self) -> float:
        return sum(t.area() for t in self.triangles)

    def vertices(self) -> List[Vec3]:
        verts: List[Vec3] = []
        for t in self.triangles:
            verts.extend(t.vertices())
        return verts

    def bounding_box(self) -> Tuple[Vec3, Vec3]:
        """Axis-aligned bounding box as (min corner, max corner)."""
        if not self.triangles:
            return (Vec3.zero(), Vec3.zero())
        xs, ys, zs = [], [], []
        for v in self.vertices():
            xs.append(v.x)
            ys.append(v.y)
            zs.append(v.z)
        return (Vec3(min(xs), min(ys), min(zs)), Vec3(max(xs), max(ys), max(zs)))

    def sample_surface(self, points_per_unit_area: float = 1.0, min_per_triangle: int = 1) -> List[Vec3]:
        """Sample points across the whole surface, proportional to area."""
        samples: List[Vec3] = []
        for t in self.triangles:
            count = max(min_per_triangle, int(math.ceil(t.area() * points_per_unit_area)))
            samples.extend(t.sample_points(count))
        return samples

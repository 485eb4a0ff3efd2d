"""Affine transformation matrices.

The paper treats affine transformations in their ``Mx + b`` form only
internally; designers see 3-vector arguments to ``Scale``, ``Rotate``, and
``Translate``.  This module provides that internal form: 4x4 homogeneous
matrices, the standard constructors, composition, inversion, and point
application.  It is used by the geometric evaluator (point membership, mesh
tessellation) and by tests that check the semantics-preservation of the
rewrite rules numerically.

Rotations follow the OpenSCAD convention the paper's benchmarks use: angles
are in degrees and ``Rotate (ax, ay, az)`` applies the X rotation first, then
Y, then Z (i.e. ``Rz * Ry * Rx``).
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import Tuple

from repro.geometry.vec import Vec3


def _identity_rows() -> Tuple[Tuple[float, ...], ...]:
    return (
        (1.0, 0.0, 0.0, 0.0),
        (0.0, 1.0, 0.0, 0.0),
        (0.0, 0.0, 1.0, 0.0),
        (0.0, 0.0, 0.0, 1.0),
    )


@dataclass(frozen=True)
class AffineMatrix:
    """A 4x4 homogeneous transformation matrix (row-major tuple of rows)."""

    rows: Tuple[Tuple[float, ...], ...] = _identity_rows()

    # -- constructors ----------------------------------------------------------

    @staticmethod
    def identity() -> "AffineMatrix":
        return AffineMatrix()

    @staticmethod
    def translation(offset: Vec3) -> "AffineMatrix":
        return AffineMatrix(
            (
                (1.0, 0.0, 0.0, offset.x),
                (0.0, 1.0, 0.0, offset.y),
                (0.0, 0.0, 1.0, offset.z),
                (0.0, 0.0, 0.0, 1.0),
            )
        )

    @staticmethod
    def scaling(factors: Vec3) -> "AffineMatrix":
        return AffineMatrix(
            (
                (factors.x, 0.0, 0.0, 0.0),
                (0.0, factors.y, 0.0, 0.0),
                (0.0, 0.0, factors.z, 0.0),
                (0.0, 0.0, 0.0, 1.0),
            )
        )

    @staticmethod
    def rotation_x(degrees: float) -> "AffineMatrix":
        radians = math.radians(degrees)
        c, s = math.cos(radians), math.sin(radians)
        return AffineMatrix(
            (
                (1.0, 0.0, 0.0, 0.0),
                (0.0, c, -s, 0.0),
                (0.0, s, c, 0.0),
                (0.0, 0.0, 0.0, 1.0),
            )
        )

    @staticmethod
    def rotation_y(degrees: float) -> "AffineMatrix":
        radians = math.radians(degrees)
        c, s = math.cos(radians), math.sin(radians)
        return AffineMatrix(
            (
                (c, 0.0, s, 0.0),
                (0.0, 1.0, 0.0, 0.0),
                (-s, 0.0, c, 0.0),
                (0.0, 0.0, 0.0, 1.0),
            )
        )

    @staticmethod
    def rotation_z(degrees: float) -> "AffineMatrix":
        radians = math.radians(degrees)
        c, s = math.cos(radians), math.sin(radians)
        return AffineMatrix(
            (
                (c, -s, 0.0, 0.0),
                (s, c, 0.0, 0.0),
                (0.0, 0.0, 1.0, 0.0),
                (0.0, 0.0, 0.0, 1.0),
            )
        )

    @staticmethod
    def rotation(angles: Vec3) -> "AffineMatrix":
        """Euler rotation in degrees, OpenSCAD order: ``Rz @ Ry @ Rx``."""
        return (
            AffineMatrix.rotation_z(angles.z)
            @ AffineMatrix.rotation_y(angles.y)
            @ AffineMatrix.rotation_x(angles.x)
        )

    # -- operations ------------------------------------------------------------

    def __matmul__(self, other: "AffineMatrix") -> "AffineMatrix":
        rows = []
        for i in range(4):
            row = []
            for j in range(4):
                row.append(
                    sum(self.rows[i][k] * other.rows[k][j] for k in range(4))
                )
            rows.append(tuple(row))
        return AffineMatrix(tuple(rows))

    def apply(self, point: Vec3) -> Vec3:
        """Transform a point (homogeneous coordinate 1)."""
        x, y, z = point.x, point.y, point.z
        coords = []
        for i in range(3):
            r = self.rows[i]
            coords.append(r[0] * x + r[1] * y + r[2] * z + r[3])
        return Vec3(coords[0], coords[1], coords[2])

    def apply_vector(self, vector: Vec3) -> Vec3:
        """Transform a direction (homogeneous coordinate 0: no translation)."""
        x, y, z = vector.x, vector.y, vector.z
        coords = []
        for i in range(3):
            r = self.rows[i]
            coords.append(r[0] * x + r[1] * y + r[2] * z)
        return Vec3(coords[0], coords[1], coords[2])

    def determinant3(self) -> float:
        """Determinant of the upper-left 3x3 block (volume scaling factor)."""
        (a, b, c, _), (d, e, f, _), (g, h, i, _), _ = self.rows
        return a * (e * i - f * h) - b * (d * i - f * g) + c * (d * h - e * g)

    def inverse(self) -> "AffineMatrix":
        """Invert the affine transform (requires a non-singular linear part)."""
        det = self.determinant3()
        if abs(det) < 1e-15:
            raise ValueError("affine matrix is singular and cannot be inverted")
        (a, b, c, tx), (d, e, f, ty), (g, h, i, tz), _ = self.rows
        # Inverse of the 3x3 linear block via the adjugate.
        inv = (
            ((e * i - f * h) / det, (c * h - b * i) / det, (b * f - c * e) / det),
            ((f * g - d * i) / det, (a * i - c * g) / det, (c * d - a * f) / det),
            ((d * h - e * g) / det, (b * g - a * h) / det, (a * e - b * d) / det),
        )
        new_t = tuple(
            -(inv[r][0] * tx + inv[r][1] * ty + inv[r][2] * tz) for r in range(3)
        )
        rows = tuple(
            tuple(inv[r]) + (new_t[r],) for r in range(3)
        ) + ((0.0, 0.0, 0.0, 1.0),)
        return AffineMatrix(rows)

    def close_to(self, other: "AffineMatrix", tolerance: float = 1e-9) -> bool:
        """Element-wise comparison within ``tolerance``."""
        for row_a, row_b in zip(self.rows, other.rows):
            for a, b in zip(row_a, row_b):
                if abs(a - b) > tolerance:
                    return False
        return True

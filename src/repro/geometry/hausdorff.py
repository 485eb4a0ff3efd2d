"""Sampled Hausdorff distance between point sets.

Section 7 of the paper notes that a rigorous way to validate a synthesized
program is to compare it against the input via Hausdorff distance.  We
implement the directed and symmetric Hausdorff distances over finite point
samples, computed with numpy in bounded-memory chunks.
"""

from __future__ import annotations

from typing import Sequence

import numpy as np

from repro.geometry.vec import Vec3


def _as_array(points: Sequence[Vec3]) -> np.ndarray:
    return np.array([[p.x, p.y, p.z] for p in points], dtype=float)


def directed_hausdorff(from_points: Sequence[Vec3], to_points: Sequence[Vec3]) -> float:
    """max over ``from_points`` of the distance to the nearest ``to_points``.

    Returns ``inf`` when ``to_points`` is empty but ``from_points`` is not,
    and 0.0 when ``from_points`` is empty (there is nothing unmatched).
    """
    if not from_points:
        return 0.0
    if not to_points:
        return float("inf")
    a = _as_array(from_points)
    b = _as_array(to_points)
    worst = 0.0
    # Chunk the outer loop to bound memory on big clouds.
    chunk = 2048
    for start in range(0, len(a), chunk):
        block = a[start : start + chunk]
        # pairwise squared distances block x b
        d2 = (
            np.sum(block * block, axis=1)[:, None]
            + np.sum(b * b, axis=1)[None, :]
            - 2.0 * block @ b.T
        )
        np.maximum(d2, 0.0, out=d2)
        nearest = np.sqrt(d2.min(axis=1))
        worst = max(worst, float(nearest.max()))
    return worst


def hausdorff_distance(points_a: Sequence[Vec3], points_b: Sequence[Vec3]) -> float:
    """Symmetric Hausdorff distance between two sampled point sets."""
    return max(
        directed_hausdorff(points_a, points_b),
        directed_hausdorff(points_b, points_a),
    )


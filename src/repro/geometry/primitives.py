"""Canonical solid primitives.

The paper assumes primitives are canonicalized: unit size, centred at the
origin, principal axes parallel to x/y/z (Section 2).  We adopt the same
convention:

* ``Unit`` / ``Cube`` — axis-aligned unit cube centred at the origin,
* ``Cylinder``        — radius 1, height 1, axis along z, centred,
* ``Sphere``          — radius 1, centred,
* ``Hexagon``         — hexagonal prism, circumradius 1, height 1, centred,
* ``Empty``           — the empty solid.

Every primitive exposes two views used elsewhere in the reproduction: an
exact point-membership predicate (for CSG evaluation and validation) and a
triangle tessellation (for STL export and mesh-decompiler simulation).
"""

from __future__ import annotations

import math
from typing import Callable, Dict, List

from repro.geometry.mesh import Mesh, Triangle
from repro.geometry.vec import Vec3

#: Names accepted for the unit cube; the paper uses both spellings.
CUBE_NAMES = ("Unit", "Cube")

#: All primitive operator names recognized by the geometry kernel.
PRIMITIVE_NAMES = ("Empty", "Unit", "Cube", "Cylinder", "Sphere", "Hexagon")


# ---------------------------------------------------------------------------
# Point membership
# ---------------------------------------------------------------------------

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


PRIMITIVE_MEMBERSHIP: Dict[str, Callable[[Vec3], bool]] = {
    "Empty": _contains_empty,
    "Unit": _contains_cube,
    "Cube": _contains_cube,
    "Cylinder": _contains_cylinder,
    "Sphere": _contains_sphere,
    "Hexagon": _contains_hexagon,
}


# ---------------------------------------------------------------------------
# Tessellation
# ---------------------------------------------------------------------------

def tessellate_cube() -> Mesh:
    """Unit cube centred at the origin (12 triangles)."""
    h = 0.5
    corners = {
        (sx, sy, sz): Vec3(sx * h, sy * h, sz * h)
        for sx in (-1, 1)
        for sy in (-1, 1)
        for sz in (-1, 1)
    }
    mesh = Mesh.empty()
    # Each face as a quad with outward-facing winding.
    faces = [
        [(-1, -1, -1), (-1, 1, -1), (1, 1, -1), (1, -1, -1)],   # bottom (z = -h)
        [(-1, -1, 1), (1, -1, 1), (1, 1, 1), (-1, 1, 1)],       # top (z = +h)
        [(-1, -1, -1), (1, -1, -1), (1, -1, 1), (-1, -1, 1)],   # front (y = -h)
        [(-1, 1, -1), (-1, 1, 1), (1, 1, 1), (1, 1, -1)],       # back (y = +h)
        [(-1, -1, -1), (-1, -1, 1), (-1, 1, 1), (-1, 1, -1)],   # left (x = -h)
        [(1, -1, -1), (1, 1, -1), (1, 1, 1), (1, -1, 1)],       # right (x = +h)
    ]
    for quad in faces:
        a, b, c, d = (corners[k] for k in quad)
        mesh.add_quad(a, b, c, d)
    return mesh


def _tessellate_prism(profile: List[Vec3]) -> Mesh:
    """Extrude a convex 2D profile (in the z=0 plane) from z=-0.5 to z=+0.5."""
    mesh = Mesh.empty()
    bottom = [Vec3(p.x, p.y, -0.5) for p in profile]
    top = [Vec3(p.x, p.y, 0.5) for p in profile]
    n = len(profile)
    center_bottom = Vec3(0.0, 0.0, -0.5)
    center_top = Vec3(0.0, 0.0, 0.5)
    for i in range(n):
        j = (i + 1) % n
        # side quad
        mesh.add_quad(bottom[i], bottom[j], top[j], top[i])
        # caps as fans
        mesh.triangles.append(Triangle(center_bottom, bottom[j], bottom[i]))
        mesh.triangles.append(Triangle(center_top, top[i], top[j]))
    return mesh


def tessellate_cylinder(segments: int = 32) -> Mesh:
    profile = [
        Vec3(math.cos(2.0 * math.pi * i / segments), math.sin(2.0 * math.pi * i / segments), 0.0)
        for i in range(segments)
    ]
    return _tessellate_prism(profile)


def tessellate_hexagon() -> Mesh:
    profile = [
        Vec3(math.cos(math.pi / 2 + 2.0 * math.pi * i / 6), math.sin(math.pi / 2 + 2.0 * math.pi * i / 6), 0.0)
        for i in range(6)
    ]
    return _tessellate_prism(profile)


def tessellate_sphere(slices: int = 16, stacks: int = 12) -> Mesh:
    """Unit sphere as a latitude/longitude grid."""
    mesh = Mesh.empty()

    def point(stack: int, slice_: int) -> Vec3:
        phi = math.pi * stack / stacks          # 0 .. pi from the north pole
        theta = 2.0 * math.pi * slice_ / slices
        return Vec3(
            math.sin(phi) * math.cos(theta),
            math.sin(phi) * math.sin(theta),
            math.cos(phi),
        )

    for stack in range(stacks):
        for slice_ in range(slices):
            p00 = point(stack, slice_)
            p01 = point(stack, slice_ + 1)
            p10 = point(stack + 1, slice_)
            p11 = point(stack + 1, slice_ + 1)
            if stack != 0:
                mesh.triangles.append(Triangle(p00, p10, p01))
            if stack != stacks - 1:
                mesh.triangles.append(Triangle(p01, p10, p11))
    return mesh


PRIMITIVE_TESSELLATORS: Dict[str, Callable[[], Mesh]] = {
    "Empty": Mesh.empty,
    "Unit": tessellate_cube,
    "Cube": tessellate_cube,
    "Cylinder": tessellate_cylinder,
    "Sphere": tessellate_sphere,
    "Hexagon": tessellate_hexagon,
}

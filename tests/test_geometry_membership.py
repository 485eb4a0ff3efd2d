"""Unit tests for point-membership CSG evaluation and Hausdorff validation."""

import math

import pytest
from hypothesis import given, strategies as st

from repro.csg.build import (
    cube,
    cylinder,
    diff,
    hexagon,
    inter,
    rotate,
    scale,
    sphere,
    translate,
    union,
)
from repro.geometry.hausdorff import directed_hausdorff, hausdorff_distance
from repro.geometry.membership import GeometryError, compile_csg, csg_contains
from repro.geometry.sampling import occupancy_points, sample_grid
from repro.geometry.vec import Vec3
from repro.lang.term import Term


class TestPrimitiveMembership:
    def test_cube_contains_origin(self):
        assert csg_contains(cube(), Vec3(0, 0, 0))

    def test_cube_excludes_outside(self):
        assert not csg_contains(cube(), Vec3(0.6, 0, 0))

    def test_sphere_boundary(self):
        assert csg_contains(sphere(), Vec3(1, 0, 0))
        assert not csg_contains(sphere(), Vec3(1.01, 0, 0))

    def test_cylinder_height_limits(self):
        assert csg_contains(cylinder(), Vec3(0, 0, 0.49))
        assert not csg_contains(cylinder(), Vec3(0, 0, 0.51))

    def test_hexagon_inside_and_outside(self):
        assert csg_contains(hexagon(), Vec3(0, 0, 0))
        assert not csg_contains(hexagon(), Vec3(0.99, 0, 0))  # flat side faces x
        assert csg_contains(hexagon(), Vec3(0, 0.99, 0))       # vertex on y axis

    def test_empty_contains_nothing(self):
        assert not csg_contains(Term("Empty"), Vec3(0, 0, 0))

    def test_external_treated_as_empty(self):
        assert not csg_contains(Term("External"), Vec3(0, 0, 0))


class TestTransformedMembership:
    def test_translate(self):
        term = translate(10, 0, 0, cube())
        assert csg_contains(term, Vec3(10, 0, 0))
        assert not csg_contains(term, Vec3(0, 0, 0))

    def test_scale(self):
        term = scale(4, 1, 1, cube())
        assert csg_contains(term, Vec3(1.9, 0, 0))
        assert not csg_contains(term, Vec3(2.1, 0, 0))

    def test_rotate(self):
        term = rotate(0, 0, 90, scale(4, 1, 1, cube()))
        assert csg_contains(term, Vec3(0, 1.9, 0))
        assert not csg_contains(term, Vec3(1.9, 0, 0))

    def test_nested_transforms(self):
        term = translate(5, 0, 0, rotate(0, 0, 90, scale(4, 1, 1, cube())))
        assert csg_contains(term, Vec3(5, 1.9, 0))


class TestBooleanMembership:
    def test_union(self):
        term = union(cube(), translate(5, 0, 0, cube()))
        assert csg_contains(term, Vec3(0, 0, 0))
        assert csg_contains(term, Vec3(5, 0, 0))
        assert not csg_contains(term, Vec3(2.5, 0, 0))

    def test_diff(self):
        term = diff(scale(4, 4, 4, cube()), cube())
        assert not csg_contains(term, Vec3(0, 0, 0))
        assert csg_contains(term, Vec3(1.5, 0, 0))

    def test_inter(self):
        term = inter(cube(), translate(0.5, 0, 0, cube()))
        assert csg_contains(term, Vec3(0.25, 0, 0))
        assert not csg_contains(term, Vec3(-0.25, 0, 0))

    def test_unknown_operator_raises(self):
        with pytest.raises(GeometryError):
            csg_contains(Term("Hull", (cube(),)), Vec3(0, 0, 0))

    def test_bounding_box_union(self):
        solid = compile_csg(union(cube(), translate(5, 0, 0, cube())))
        assert solid.bound_max.x >= 5.4
        assert solid.bound_min.x <= -0.4


class TestSolidExtents:
    """Exact extents and volumes of transformed and combined solids."""

    def test_scale_stretches_each_axis_by_its_factor(self):
        term = scale(2, 3, 4, cube())
        assert csg_contains(term, Vec3(0.99, 1.49, 1.99))
        assert csg_contains(term, Vec3(-0.99, -1.49, -1.99))
        for outside in (Vec3(1.01, 0, 0), Vec3(0, 1.51, 0), Vec3(0, 0, 2.01)):
            assert not csg_contains(term, outside)

    def test_rotation_is_counterclockwise_about_z(self):
        # The box's corner (1, -0.5) turns 45 degrees to x = 1.5/sqrt(2),
        # y = 0.5/sqrt(2), OpenSCAD's sense of rotation.
        term = rotate(0, 0, 45, scale(2, 1, 1, cube()))
        reach = 1.5 / math.sqrt(2.0)
        y = 0.5 / math.sqrt(2.0)
        assert csg_contains(term, Vec3(reach - 0.01, y, 0))
        assert not csg_contains(term, Vec3(reach + 0.01, y, 0))
        assert not csg_contains(term, Vec3(reach - 0.01, -y, 0))
        assert compile_csg(term).bound_max.x >= reach

    def test_hexagon_lies_within_unit_radius_and_half_height(self):
        grid = sample_grid(Vec3(-1.2, -1.2, -1.2), Vec3(1.2, 1.2, 1.2), resolution=12)
        inside = occupancy_points(hexagon(), grid)
        assert inside
        for point in inside:
            assert point.x * point.x + point.y * point.y <= 1.0 + 1e-9
            assert abs(point.z) <= 0.5

    def test_sphere_boundary_is_the_unit_sphere(self):
        for lat in (-60, -15, 0, 30, 75):
            for lon in range(0, 360, 45):
                phi, theta = math.radians(lat), math.radians(lon)
                on_surface = Vec3(
                    0.999 * math.cos(phi) * math.cos(theta),
                    0.999 * math.cos(phi) * math.sin(theta),
                    0.999 * math.sin(phi),
                )
                assert csg_contains(sphere(), on_surface)
                assert not csg_contains(sphere(), on_surface * (1.01 / 0.999))

    def test_diff_is_the_exact_solid(self):
        # The unit sphere swallows the cube (its corners lie at
        # sqrt(3)/2 < 1), so the difference is empty, boundaries and all.
        grid = sample_grid(Vec3(-0.5, -0.5, -0.5), Vec3(0.5, 0.5, 0.5), resolution=10)
        assert occupancy_points(diff(cube(), sphere()), grid) == []
        assert occupancy_points(diff(sphere(), cube()), grid) == []
        assert csg_contains(diff(sphere(), cube()), Vec3(0.9, 0, 0))

    def test_disjoint_union_occupies_both_operands(self):
        left, right = cube(), translate(3, 0, 0, cube())
        grid = sample_grid(Vec3(-1, -1, -1), Vec3(4, 1, 1), resolution=10)
        occupied = occupancy_points(union(left, right), grid)
        assert occupied
        assert len(occupied) == len(occupancy_points(left, grid)) + len(
            occupancy_points(right, grid)
        )

    def test_uniform_scale_multiplies_volume_by_its_cube(self):
        grid = sample_grid(Vec3(-1, -1, -1), Vec3(1, 1, 1), resolution=8)
        unit_volume = len(occupancy_points(cube(), grid))
        assert unit_volume == len(grid) // 8
        assert len(occupancy_points(scale(2, 2, 2, cube()), grid)) == 8 * unit_volume


class TestSamplingAndHausdorff:
    def test_grid_size(self):
        grid = sample_grid(Vec3(0, 0, 0), Vec3(1, 1, 1), resolution=4)
        assert len(grid) == 64

    def test_occupancy_fraction_of_sphere(self):
        grid = sample_grid(Vec3(-1, -1, -1), Vec3(1, 1, 1), resolution=12)
        inside = occupancy_points(sphere(), grid)
        fraction = len(inside) / len(grid)
        # Volume of the unit sphere / bounding cube = pi/6 ~ 0.52.
        assert fraction == pytest.approx(0.5236, abs=0.08)

    def test_hausdorff_identical_sets(self):
        points = [Vec3(i, 0, 0) for i in range(10)]
        assert hausdorff_distance(points, list(points)) == 0.0

    def test_hausdorff_translated_sets(self):
        a = [Vec3(i, 0, 0) for i in range(5)]
        b = [Vec3(i, 1, 0) for i in range(5)]
        assert hausdorff_distance(a, b) == pytest.approx(1.0)

    def test_directed_asymmetry(self):
        a = [Vec3(0, 0, 0)]
        b = [Vec3(0, 0, 0), Vec3(10, 0, 0)]
        assert directed_hausdorff(a, b) == 0.0
        assert directed_hausdorff(b, a) == pytest.approx(10.0)

    def test_empty_sets(self):
        assert hausdorff_distance([], []) == 0.0
        assert directed_hausdorff([Vec3(0, 0, 0)], []) == float("inf")


_coords = st.floats(min_value=-3, max_value=3, allow_nan=False)


@given(_coords, _coords, _coords, _coords, _coords, _coords)
def test_translation_membership_property(px, py, pz, tx, ty, tz):
    """p in T(v, cube) iff p - v in cube (property)."""
    point = Vec3(px, py, pz)
    term = translate(tx, ty, tz, cube())
    direct = csg_contains(term, point)
    shifted = csg_contains(cube(), Vec3(px - tx, py - ty, pz - tz))
    assert direct == shifted


@given(_coords, _coords, _coords)
def test_union_commutative_property(px, py, pz):
    """Membership in a union does not depend on operand order (property)."""
    point = Vec3(px, py, pz)
    a = translate(1, 0, 0, cube())
    b = sphere()
    assert csg_contains(union(a, b), point) == csg_contains(union(b, a), point)

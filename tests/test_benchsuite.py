"""Tests for the benchmark suite definitions, noise simulation, and references."""

import pytest

from repro.benchsuite.human import human_reference, reference_names
from repro.benchsuite.models import (
    circular_pattern,
    fig2_translated_cubes,
    fig16_noisy_hexagons,
    fig17_dice_six,
    gear_model,
    grid_array,
    linear_array,
)
from repro.benchsuite.noise import add_decompiler_noise, noise_floor
from repro.benchsuite.suite import BENCHMARKS, benchmark_names, get_benchmark
from repro.cad.evaluator import unroll
from repro.csg.metrics import measure, primitive_count
from repro.csg.validate import is_flat_csg
from repro.verify.structural import equivalent_modulo_reordering, terms_equal_modulo_epsilon


class TestSuiteDefinitions:
    def test_sixteen_benchmarks(self):
        assert len(BENCHMARKS) == 16

    def test_names_unique(self):
        assert len(set(benchmark_names())) == 16

    def test_lookup(self):
        assert get_benchmark("gear").thing_id == "3362402"
        with pytest.raises(KeyError):
            get_benchmark("missing-model")

    def test_source_split_matches_paper(self):
        # The paper: ~70% of the models come from Thingiverse OpenSCAD ("T").
        t_count = sum(1 for b in BENCHMARKS if b.source == "T")
        assert t_count >= 10

    @pytest.mark.parametrize("bench_model", BENCHMARKS, ids=lambda b: b.name)
    def test_every_model_builds_flat_csg(self, bench_model):
        flat = bench_model.build()
        assert is_flat_csg(flat, allow_external=True)
        metrics = measure(flat)
        assert metrics.nodes > 20
        assert metrics.primitives >= 4

    def test_structured_majority(self):
        # The paper exposes structure for 13 of 16 models (81%); this
        # reproduction recovers it for 12.  relay-box's first candidate
        # with a loop is the 179th the extractor enumerates (cost 43
        # against a best of 35), far outside the top-5.
        structured = sum(1 for b in BENCHMARKS if b.expects_structure)
        assert structured == 12

    def test_gear_matches_figure_model(self):
        flat = get_benchmark("gear").build()
        assert measure(flat).primitives == 63  # 60 teeth + 3 cylinders

    def test_builders_deterministic(self):
        for benchmark in BENCHMARKS[:4]:
            assert benchmark.build() == benchmark.build()


class TestModelGenerators:
    def test_gear_tooth_count_scales(self):
        assert primitive_count(gear_model(teeth=10)) == 13
        assert primitive_count(gear_model(teeth=20)) == 23

    def test_fig2_count(self):
        assert primitive_count(fig2_translated_cubes(7)) == 7

    def test_dice_six_has_six_pips(self):
        assert primitive_count(fig17_dice_six()) == 6

    def test_linear_array_positions(self):
        flat = linear_array(3, (5.0, 0.0, 0.0), fig2_translated_cubes(1))
        assert primitive_count(flat) == 3

    def test_grid_array(self):
        flat = grid_array(2, 3, (10.0, 10.0, 0.0), fig2_translated_cubes(1))
        assert primitive_count(flat) == 6

    def test_circular_pattern_on_circle(self):
        from repro.csg.ops import affine_vector

        flat = circular_pattern(6, 10.0, fig2_translated_cubes(1))
        outer = [affine_vector(child) for child in _union_operands(flat)]
        for x, y, _z in outer:
            assert x * x + y * y == pytest.approx(100.0, rel=1e-9)


def _union_operands(term):
    if term.op != "Union":
        return [term]
    return _union_operands(term.children[0]) + _union_operands(term.children[1])


class TestNoiseSimulation:
    def test_noise_is_deterministic(self):
        clean = fig2_translated_cubes(5)
        a = add_decompiler_noise(clean, magnitude=1e-3, seed=3)
        b = add_decompiler_noise(clean, magnitude=1e-3, seed=3)
        assert a == b

    def test_noise_bounded_by_magnitude(self):
        clean = fig2_translated_cubes(5)
        noisy = add_decompiler_noise(clean, magnitude=1e-3, seed=3)
        assert terms_equal_modulo_epsilon(clean, noisy, epsilon=1e-3)
        assert not terms_equal_modulo_epsilon(clean, noisy, epsilon=1e-9)

    def test_different_seeds_differ(self):
        clean = fig2_translated_cubes(5)
        assert add_decompiler_noise(clean, seed=1) != add_decompiler_noise(clean, seed=2)

    def test_zero_magnitude_is_identity_geometry(self):
        clean = fig2_translated_cubes(3)
        noisy = add_decompiler_noise(clean, magnitude=0.0)
        assert terms_equal_modulo_epsilon(clean, noisy, epsilon=1e-12)

    def test_noise_floor(self):
        clean = fig2_translated_cubes(3)
        assert noise_floor(clean) == 0.0
        assert noise_floor(fig16_noisy_hexagons()) > 0.0
        assert noise_floor(add_decompiler_noise(clean, magnitude=5e-4, seed=1)) > 0.0


class TestHumanReferences:
    def test_reference_names(self):
        assert "gear" in reference_names()

    @pytest.mark.parametrize("name", ["gear", "tape-store", "hc-bits", "dice-six"])
    def test_reference_unrolls_to_its_flat_form(self, name):
        reference = human_reference(name)
        unrolled = unroll(reference.structured)
        assert equivalent_modulo_reordering(reference.flat, unrolled, epsilon=1e-6)

    def test_unknown_reference(self):
        with pytest.raises(KeyError):
            human_reference("nope")

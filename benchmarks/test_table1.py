"""Table 1 — the main evaluation over the 16-model benchmark suite.

The paper reports, per model, the input/output sizes, primitive counts,
depths, loop structure, function class, synthesis time, and the rank of the
structured program; and in aggregate a 64% average size reduction with
structure exposed for 81% (13/16) of the models.  This harness re-runs the
whole suite and checks those aggregate shapes; per-model rows are printed so
they can be compared side by side with the paper's Table 1.
"""

import pytest

from repro.benchsuite.suite import BENCHMARKS, get_benchmark
from repro.benchsuite.table1 import (
    average_size_reduction,
    format_table,
    run_benchmark,
    run_table1,
    structure_exposure_rate,
)

pytestmark = pytest.mark.table1

#: Models the paper reports as exposing structure under the default cost.
_STRUCTURED = [b for b in BENCHMARKS if b.expects_structure]
#: Models with no repetitive structure (output should stay flat).
_UNSTRUCTURED = [b for b in BENCHMARKS if not b.expects_structure]


@pytest.fixture(scope="module")
def table1_rows():
    """Run the full suite once and share the rows across assertions."""
    rows = run_table1()
    print()
    print(format_table(rows))
    return rows


class TestTable1Aggregates:
    def test_average_size_reduction_matches_paper_shape(self, table1_rows):
        # Paper: 64% average reduction.  The suite is a re-creation, so we
        # check the shape: a large average reduction, well above 40%.
        reduction = average_size_reduction(table1_rows)
        assert reduction >= 0.40

    def test_structure_exposed_for_most_models(self, table1_rows):
        # Paper: 81% (13 of 16).
        rate = structure_exposure_rate(table1_rows)
        assert rate >= 12 / 16

    def test_every_expectation_matches(self, table1_rows):
        mismatched = [row.name for row in table1_rows if not row.matches_expectation]
        assert not mismatched, f"structure expectation mismatches: {mismatched}"

    def test_structured_programs_rank_in_top5(self, table1_rows):
        # Paper: the structured program is always within the top-5 returned.
        ranked = [row for row in table1_rows if row.exposes_structure]
        assert ranked
        assert all(row.rank is not None and row.rank <= 5 for row in ranked)

    def test_output_depth_reduced_on_average(self, table1_rows):
        # Paper: mean output depth drops by ~40%.
        structured_rows = [r for r in table1_rows if r.exposes_structure]
        mean_input = sum(r.input_depth for r in structured_rows) / len(structured_rows)
        mean_output = sum(r.output_depth for r in structured_rows) / len(structured_rows)
        assert mean_output < mean_input

    def test_primitive_counts_reduced(self, table1_rows):
        # Paper: #o-p is ~65% smaller than #i-p on average.
        total_in = sum(r.input_primitives for r in table1_rows)
        total_out = sum(r.output_primitives for r in table1_rows)
        assert total_out < total_in * 0.7

    def test_runtime_bounded(self, table1_rows):
        # Paper: every model finishes within 5 minutes.
        assert all(row.seconds < 300.0 for row in table1_rows)


class TestIndividualRows:
    @pytest.mark.parametrize(
        "name", [b.name for b in _STRUCTURED], ids=[b.name for b in _STRUCTURED]
    )
    def test_structured_models_expose_structure(self, name, table1_rows):
        row = next(r for r in table1_rows if name in r.name)
        assert row.exposes_structure
        assert row.loops != "-"
        assert row.functions != "-"

    @pytest.mark.parametrize(
        "name", [b.name for b in _UNSTRUCTURED], ids=[b.name for b in _UNSTRUCTURED]
    )
    def test_unstructured_models_stay_flat(self, name, table1_rows):
        row = next(r for r in table1_rows if name in r.name)
        assert not row.exposes_structure
        # The paper reports identical (or near identical) sizes for these.
        assert row.output_nodes <= row.input_nodes

    def test_gear_row_shape(self, table1_rows):
        row = next(r for r in table1_rows if "gear" in r.name)
        assert row.loops == "n1,60"
        assert "d1" in row.functions
        assert row.rank == 1
        assert row.size_reduction > 0.85


class TestSingleModelTiming:
    """Per-model rows for a representative subset."""

    @pytest.mark.parametrize("name", ["card-org", "relay-box", "hc-bits"])
    def test_benchmark_single_model(self, name):
        bench_model = get_benchmark(name)
        row = run_benchmark(bench_model)
        assert row.exposes_structure == bench_model.expects_structure

"""Pins of Table 1 output that the golden top-k file does not cover.

``perfbench/golden/table1_topk.json`` pins the canonical top-k text of the
16 Table 1 models.  This module pins two more things per model, from
``tests/data/table1_pins.json``:

* the inference records function and loop inference produced, in order, as
  ``(kind, loop_bounds, function_kinds, nesting)``.  ``list_class`` is left
  out: e-class ids are not promised stable across hash seeds;
* the canonical top-k text of the model's ``semantic_variant``, a
  respelled input the golden file never sees.

An optimization of the arithmetic components must leave both unchanged.
Regenerate the data only for an intended output change, with
``PYTHONPATH=src python tests/test_table1_pins.py``.
"""

import json
import sys
from pathlib import Path

import pytest

from repro.benchsuite.suite import BENCHMARKS, get_benchmark
from repro.benchsuite.variants import semantic_variant
from repro.core.config import SynthesisConfig
from repro.core.pipeline import synthesize
from repro.lang.canon import canonical_term_text

_PINS = Path(__file__).resolve().parent / "data" / "table1_pins.json"


def _pin(name: str) -> dict:
    """What this module pins for one Table 1 model, in JSON form."""
    benchmark = get_benchmark(name)
    config = SynthesisConfig(cost_function=benchmark.cost_function)
    model = benchmark.build()
    records = synthesize(model, config).inference_records
    variant = synthesize(semantic_variant(model), config)
    return {
        "inference_records": [
            [r.kind, list(r.loop_bounds), list(r.function_kinds), r.nesting] for r in records
        ],
        "variant_top_k": [canonical_term_text(c.term) for c in variant.candidates],
    }


@pytest.fixture(scope="module")
def pins() -> dict:
    return json.loads(_PINS.read_text())


def test_pins_cover_every_table1_model(pins):
    assert sorted(pins) == sorted(b.name for b in BENCHMARKS)


@pytest.mark.parametrize("name", [b.name for b in BENCHMARKS])
def test_inference_records_and_variant_top_k_match_the_pins(name, pins):
    now = _pin(name)
    assert now["inference_records"] == pins[name]["inference_records"]
    assert now["variant_top_k"] == pins[name]["variant_top_k"]


def _dump(data: dict) -> str:
    """``data`` as JSON text with one record or candidate per line."""

    def items(values) -> str:
        return ",\n".join(f"   {json.dumps(value)}" for value in values)

    models = [
        f" {json.dumps(name)}: {{\n"
        f'  "inference_records": [\n{items(pin["inference_records"])}\n  ],\n'
        f'  "variant_top_k": [\n{items(pin["variant_top_k"])}\n  ]\n }}'
        for name, pin in sorted(data.items())
    ]
    return "{\n" + ",\n".join(models) + "\n}\n"


if __name__ == "__main__":
    _PINS.parent.mkdir(exist_ok=True)
    data = {b.name: _pin(b.name) for b in BENCHMARKS}
    _PINS.write_text(_dump(data))
    print(f"wrote {_PINS} ({len(data)} models)", file=sys.stderr)

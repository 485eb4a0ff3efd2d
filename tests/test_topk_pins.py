"""Pins of the top-k for inputs the other pins do not cover.

``perfbench/golden/table1_topk.json`` pins the Table 1 top-k under each
model's own cost function (``ast-size``), and ``tests/data/table1_pins.json``
pins the top-k of their ``semantic_variant``\\ s.  This module pins every
candidate's canonical text and cost for three more input sets:

* ``reward_loops`` — the 16 Table 1 models under the ``reward-loops`` cost;
* ``scale`` — the five ``scale`` benchmark models of seeds 0 and 1 (a
  50-tooth gear, a plate of holes, a noisy ring, a rail and a scatter);
* ``service`` — the 120 small generated models of the ``service``
  benchmark's seed 1 (rows, grids, circles and piles of primitives).

The ``scale`` and ``service`` inputs are stored as canonical text, so the
pins do not depend on the benchmark's generators.  An optimization of any
layer must leave all three unchanged.  Regenerate the data only for an
intended output change, from the repository root, with
``PYTHONPATH=src python tests/test_topk_pins.py``.
"""

import json
import sys
from pathlib import Path

import pytest

from repro.benchsuite.suite import BENCHMARKS, get_benchmark
from repro.core.config import SynthesisConfig
from repro.core.pipeline import synthesize
from repro.lang.canon import canonical_term_text, term_from_canonical

_DATA = Path(__file__).resolve().parent / "data"
_SETS = ("reward_loops", "scale", "service")


def _path(pin_set: str) -> Path:
    return _DATA / f"topk_pins_{pin_set}.json"


def _top_k(term, config: SynthesisConfig) -> list:
    """``[cost, canonical text]`` of every candidate, in rank order."""
    result = synthesize(term, config)
    return [[c.cost, canonical_term_text(c.term)] for c in result.candidates]


_REWARD_LOOPS = SynthesisConfig(cost_function="reward-loops")


@pytest.fixture(scope="module")
def pins() -> dict:
    return {pin_set: json.loads(_path(pin_set).read_text()) for pin_set in _SETS}


def test_reward_loops_pins_cover_every_table1_model(pins):
    assert [p["name"] for p in pins["reward_loops"]] == [b.name for b in BENCHMARKS]


@pytest.mark.parametrize("name", [b.name for b in BENCHMARKS])
def test_table1_top_k_under_reward_loops(name, pins):
    (pin,) = [p for p in pins["reward_loops"] if p["name"] == name]
    assert _top_k(get_benchmark(name).build(), _REWARD_LOOPS) == pin["top_k"]


def test_service_small_models_match_the_pins(pins):
    assert len(pins["service"]) == 120
    for pin in pins["service"]:
        term = term_from_canonical(pin["input"])
        assert _top_k(term, SynthesisConfig()) == pin["top_k"], pin["name"]


@pytest.mark.slow
def test_scale_models_match_the_pins(pins):
    assert len(pins["scale"]) == 10
    for pin in pins["scale"]:
        term = term_from_canonical(pin["input"])
        assert _top_k(term, SynthesisConfig()) == pin["top_k"], pin["name"]


def _generate() -> dict:
    """Every pin set, built from the Table 1 suite and the benchmark's inputs."""
    sys.path.insert(0, str(Path(__file__).resolve().parent.parent))
    from perfbench.workloads import scale_items, service_population

    def stored(name: str, term) -> dict:
        """A pin that carries its input, synthesized from that stored text."""
        text = canonical_term_text(term)
        return {"name": name, "input": text,
                "top_k": _top_k(term_from_canonical(text), SynthesisConfig())}

    return {
        "reward_loops": [
            {"name": b.name, "top_k": _top_k(b.build(), _REWARD_LOOPS)} for b in BENCHMARKS
        ],
        "scale": [
            stored(f"seed{seed}/{item.name}", item.term)
            for seed in (0, 1)
            for item in scale_items(seed)
        ],
        "service": [
            stored(item.name, item.term)
            for item in service_population(1)
            if item.family != "table1"
        ],
    }


def _dump(entries: list) -> str:
    """``entries`` as JSON text with one candidate per line."""

    def entry_text(entry: dict) -> str:
        head = [f'  "name": {json.dumps(entry["name"])}']
        if "input" in entry:
            head.append(f'  "input": {json.dumps(entry["input"])}')
        candidates = ",\n".join(f"   {json.dumps(c)}" for c in entry["top_k"])
        head.append(f'  "top_k": [\n{candidates}\n  ]')
        return " {\n" + ",\n".join(head) + "\n }"

    return "[\n" + ",\n".join(entry_text(e) for e in entries) + "\n]\n"


if __name__ == "__main__":
    _DATA.mkdir(exist_ok=True)
    for pin_set, entries in _generate().items():
        _path(pin_set).write_text(_dump(entries))
        print(f"wrote {_path(pin_set)} ({len(entries)} inputs)", file=sys.stderr)

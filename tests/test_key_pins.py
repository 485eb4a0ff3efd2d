"""Pins of the cache keys of every benchmark input.

No cache key carries a code version, so a change to the term codec that
alters one byte of a canonical or normalized text silently re-keys the
cache: every stored entry would miss.  ``tests/data/key_pins.json`` holds
the exact key (:func:`~repro.service.cache.cache_key`) and the semantic key
(:func:`~repro.service.cache.semantic_cache_key`) of

* ``table1`` — the 16 Table 1 models under their own cost function, and
  their ``semantic_variant``\\ s;
* ``scale`` — the five ``scale`` benchmark models of seeds 0 and 1;
* ``service`` — the 120 small generated models of the ``service``
  benchmark's seed 1.

Every input is stored as canonical text; the Table 1 models and variants
are also rebuilt from the suite and must spell that text, which pins the
generators (the noise simulator draws its numbers in ``map_bottom_up``'s
call order).  Regenerate only for an intended re-key, from the repository
root, with ``PYTHONPATH=src python tests/test_key_pins.py``.
"""

import json
import sys
from pathlib import Path

import pytest

from repro.benchsuite.suite import BENCHMARKS
from repro.benchsuite.variants import semantic_variant
from repro.core.config import SynthesisConfig
from repro.lang.canon import canonical_term_text, term_from_canonical
from repro.service.cache import cache_key, semantic_cache_key

_PATH = Path(__file__).resolve().parent / "data" / "key_pins.json"


def _pin(name: str, term, config: SynthesisConfig) -> dict:
    return {
        "name": name,
        "input": canonical_term_text(term),
        "exact": cache_key(term, config),
        "semantic": semantic_cache_key(term, config),
    }


def _table1_config(benchmark) -> SynthesisConfig:
    return SynthesisConfig(cost_function=benchmark.cost_function)


def _table1_pins() -> list:
    pins = []
    for benchmark in BENCHMARKS:
        model = benchmark.build()
        config = _table1_config(benchmark)
        pins.append(_pin(benchmark.name, model, config))
        pins.append(_pin(f"{benchmark.name}/variant", semantic_variant(model), config))
    return pins


@pytest.fixture(scope="module")
def pins() -> dict:
    return json.loads(_PATH.read_text())


def test_pins_cover_every_input_set(pins):
    assert len(pins["table1"]) == 2 * len(BENCHMARKS)
    assert len(pins["scale"]) == 10
    assert len(pins["service"]) == 120


def test_table1_models_and_variants_keep_their_text_and_keys(pins):
    assert _table1_pins() == pins["table1"]


@pytest.mark.parametrize("pin_set", ["table1", "scale", "service"])
def test_stored_inputs_keep_their_keys(pins, pin_set):
    configs = {b.name: _table1_config(b) for b in BENCHMARKS}
    for pin in pins[pin_set]:
        config = configs[pin["name"].split("/")[0]] if pin_set == "table1" else SynthesisConfig()
        term = term_from_canonical(pin["input"])
        assert canonical_term_text(term) == pin["input"], pin["name"]
        assert cache_key(term, config) == pin["exact"], pin["name"]
        assert semantic_cache_key(term, config) == pin["semantic"], pin["name"]


def _generate() -> dict:
    """Every pin set, built from the Table 1 suite and the benchmark's inputs."""
    sys.path.insert(0, str(Path(__file__).resolve().parent.parent))
    from perfbench.workloads import scale_items, service_population

    return {
        "table1": _table1_pins(),
        "scale": [
            _pin(f"seed{seed}/{item.name}", item.term, item.config)
            for seed in (0, 1)
            for item in scale_items(seed)
        ],
        "service": [
            _pin(item.name, item.term, item.config)
            for item in service_population(1)
            if item.family != "table1"
        ],
    }


if __name__ == "__main__":
    _PATH.parent.mkdir(exist_ok=True)
    data = _generate()
    _PATH.write_text(
        "{\n"
        + ",\n".join(
            f" {json.dumps(pin_set)}: [\n"
            + ",\n".join(f"  {json.dumps(pin, sort_keys=True)}" for pin in pins)
            + "\n ]"
            for pin_set, pins in data.items()
        )
        + "\n}\n"
    )
    print(f"wrote {_PATH} ({sum(map(len, data.values()))} inputs)", file=sys.stderr)

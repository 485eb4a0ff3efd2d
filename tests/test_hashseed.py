"""Synthesis output must not depend on Python's per-process hash seed.

``PYTHONHASHSEED`` salts the hashes of strings, and so the iteration order
of any set or dict keyed by them.  If the e-graph, the fold worklist or
extraction ever walked such a set, two processes could return different
programs for the same model.  Two subprocesses with different seeds
synthesize Table 1 models and must print byte-identical canonical top-k
text: five quick models in the blocking suite, the other eleven in the
``slow`` lane.
"""

import os
import subprocess
import sys

import pytest

from repro.benchsuite.suite import BENCHMARKS

_MODELS = ("sander", "soldering", "hc-bits", "relay-box", "compose")
_OTHER_MODELS = tuple(b.name for b in BENCHMARKS if b.name not in _MODELS)

_SCRIPT = """
import sys

from repro.benchsuite.suite import get_benchmark
from repro.core.config import SynthesisConfig
from repro.core.pipeline import synthesize
from repro.lang.canon import canonical_term_text

for name in sys.argv[1:]:
    benchmark = get_benchmark(name)
    config = SynthesisConfig(cost_function=benchmark.cost_function)
    for candidate in synthesize(benchmark.build(), config).candidates:
        print(name, candidate.rank, repr(candidate.cost), canonical_term_text(candidate.term))
"""


def _top_k_text(seed: str, models) -> str:
    env = dict(os.environ, PYTHONHASHSEED=seed)
    done = subprocess.run(
        [sys.executable, "-c", _SCRIPT, *models],
        capture_output=True,
        text=True,
        env=env,
        timeout=300,
        check=True,
    )
    return done.stdout


def test_top_k_text_is_identical_across_hash_seeds():
    first, second = _top_k_text("0", _MODELS), _top_k_text("424242", _MODELS)
    assert first.count("\n") >= len(_MODELS)
    assert first == second


@pytest.mark.slow
def test_every_other_table1_model_is_identical_across_hash_seeds():
    assert len(_MODELS) + len(_OTHER_MODELS) == 16
    first, second = _top_k_text("0", _OTHER_MODELS), _top_k_text("7", _OTHER_MODELS)
    assert first.count("\n") >= len(_OTHER_MODELS)
    assert first == second

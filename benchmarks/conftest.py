"""Shared fixtures and options for the benchmark harness.

Each benchmark module regenerates one table or figure of the paper's
evaluation (Section 6), or measures one layer; the end-to-end numbers come
from ``perfbench/run.py``.  Each synthesis runs once, and the assertions in
each benchmark check the *shape* of the paper's result (who wins, what
structure is recovered), not absolute numbers.

Wall-clock ratios are not shapes: on a shared or loaded host they wobble.
The timing benchmarks (``test_saturation_perf.py``, ``test_batch_service.py``,
``test_semantic_cache_perf.py``, ``test_tracer_overhead.py`` and
``test_latency_slo.py``) assert their speed floors and ceilings, and record
their measurements under ``.benchmarks/``, only when pytest is given
``--bench`` (an option of the repository's root ``conftest.py``), e.g.
``pytest -q --bench benchmarks/test_saturation_perf.py``.  Without it they
run as correctness smokes: every other assertion still holds.

``src/`` and ``tests/`` go on ``sys.path``: the saturation benchmark
measures the production engine against the reference designs of
``tests/saturation_oracle.py``.
"""

import json
import sys
from pathlib import Path

_ROOT = Path(__file__).resolve().parent.parent
for _path in (_ROOT / "tests", _ROOT / "src"):
    if str(_path) not in sys.path:
        sys.path.insert(0, str(_path))

import pytest

from repro.core.config import SynthesisConfig

#: The one benchmark record.  It lives under the gitignored ``.benchmarks/``
#: directory at the repository root, so a test run never rewrites a tracked
#: file.
BENCH_PATH = _ROOT / ".benchmarks" / "BENCH_saturation.json"


def _record(payload: dict) -> None:
    """Merge ``payload``'s top-level keys into the benchmark record."""
    existing = {}
    if BENCH_PATH.exists():
        try:
            existing = json.loads(BENCH_PATH.read_text())
        except (OSError, ValueError):
            existing = {}
    existing.update(payload)
    BENCH_PATH.parent.mkdir(parents=True, exist_ok=True)
    BENCH_PATH.write_text(json.dumps(existing, indent=2) + "\n")


@pytest.fixture
def bench(request) -> bool:
    """True under ``--bench``: assert the wall-clock floors and ceilings."""
    return request.config.getoption("bench")


@pytest.fixture
def bench_record(bench):
    """The benchmark recorder: call it with ``{key: measurements}``.

    It writes only under ``--bench``; a smoke run leaves ``.benchmarks/``
    alone.
    """
    return _record if bench else (lambda payload: None)


@pytest.fixture
def paper_config() -> SynthesisConfig:
    """The configuration matching the paper's evaluation setup."""
    return SynthesisConfig(epsilon=1e-3, top_k=5)


def pytest_configure(config):
    config.addinivalue_line(
        "markers", "table1: benchmarks reproducing rows of Table 1"
    )
    config.addinivalue_line(
        "markers", "figure: benchmarks reproducing figure examples"
    )

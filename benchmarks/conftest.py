"""Shared fixtures for the benchmark harness.

Each benchmark module regenerates one table or figure of the paper's
evaluation (Section 6), or measures one layer; the end-to-end numbers come
from ``perfbench/run.py``.  ``pytest-benchmark`` provides the timing
machinery; the assertions in each benchmark check the *shape* of the paper's
result (who wins, what structure is recovered), not absolute numbers.
"""

import json
import sys
from pathlib import Path

_SRC = Path(__file__).resolve().parent.parent / "src"
if str(_SRC) not in sys.path:
    sys.path.insert(0, str(_SRC))

import pytest

from repro.core.config import SynthesisConfig

#: The one benchmark record.  It lives under the gitignored ``.benchmarks/``
#: directory at the repository root, so a test run never rewrites a tracked
#: file.
BENCH_PATH = Path(__file__).resolve().parent.parent / ".benchmarks" / "BENCH_saturation.json"


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
def bench_record():
    """The benchmark recorder: call it with ``{key: measurements}``."""
    return _record


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

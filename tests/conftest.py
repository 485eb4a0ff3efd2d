"""Shared pytest fixtures and path setup.

The ``sys.path`` insertion lets the tests run from a source checkout even
when the package has not been installed (e.g. ``pytest`` straight after
cloning); when the package is installed the insertion is a no-op.
"""

import sys
from pathlib import Path

_SRC = Path(__file__).resolve().parent.parent / "src"
if str(_SRC) not in sys.path:
    sys.path.insert(0, str(_SRC))

import pytest

from repro.core.config import SynthesisConfig


def pytest_configure(config):
    config.addinivalue_line(
        "markers",
        "slow: long-running end-to-end sweeps; CI runs these in a separate "
        "lane (deselect locally with -m 'not slow')",
    )


@pytest.fixture
def config() -> SynthesisConfig:
    """The default synthesis configuration (paper settings)."""
    return SynthesisConfig()


@pytest.fixture
def fast_config() -> SynthesisConfig:
    """A configuration with tighter limits for small unit-test models."""
    return SynthesisConfig(rewrite_iterations=10, max_enodes=20_000, max_seconds=20.0)

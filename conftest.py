"""Command-line options shared by every test directory.

pytest reads ``pytest_addoption`` only from the conftest files it loads
before it parses the command line: the ones in the directories of the
given paths and their parents.  Registered here, at the root, ``--bench``
parses whatever paths a run names (or none), e.g. ``pytest --co -q
--bench``; only the benchmarks under ``benchmarks/`` read it (see
``benchmarks/conftest.py``).
"""


def pytest_addoption(parser):
    parser.addoption(
        "--bench",
        action="store_true",
        default=False,
        help="assert the timing benchmarks' speed floors and ceilings and record "
        "their measurements under .benchmarks/ (without it they run as "
        "correctness smokes)",
    )

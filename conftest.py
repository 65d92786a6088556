"""Pytest settings shared by the repository's two suites.

pyproject.toml turns every RuntimeWarning into an error.  The benchmark's
own self-tests under ``ellrbench/`` run the ``identities_grid`` workload,
whose n = 2 ``limit.antisymmetrizer`` divides by the zero norm of its
target (a known defect, recorded in ``ellrbench/golden.json``); those two
messages are ignored there, and only there, until that fix re-records the
golden file.
"""

import pathlib

import pytest

BENCH = pathlib.Path(__file__).resolve().parent / "ellrbench"
KNOWN_LIMIT_DEFECT = pytest.mark.filterwarnings(
    "ignore:divide by zero encountered in scalar divide:RuntimeWarning",
    "ignore:invalid value encountered in scalar divide:RuntimeWarning",
)


def pytest_collection_modifyitems(items):
    for item in items:
        if BENCH in pathlib.Path(item.path).resolve().parents:
            item.add_marker(KNOWN_LIMIT_DEFECT)

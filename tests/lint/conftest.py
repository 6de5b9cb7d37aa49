"""Shared fixtures for the linter tests.

The lint of ``src``, ``benchmarks`` and ``examples`` is the slowest
thing these tests do, and several gates ask questions of the
same pass (clean overall, clean per rule family, inside the time
budget).  :func:`tree_lint` runs it once per session and times it, so
each gate reads the one result.  Gates over a different file set keep
their own run: whole-program results depend on which files are passed.
"""

from __future__ import annotations

import pathlib
import time
from typing import NamedTuple

import pytest

from repro.lint import LintResult, lint_paths, load_config

REPO = pathlib.Path(__file__).resolve().parents[2]
TREE = (REPO / "src", REPO / "benchmarks", REPO / "examples")


class TimedLint(NamedTuple):
    result: LintResult
    seconds: float


@pytest.fixture(scope="session")
def tree_lint() -> TimedLint:
    """``python -m repro.lint src benchmarks examples``, once."""
    config = load_config(REPO / "pyproject.toml")
    start = time.perf_counter()
    result = lint_paths(list(TREE), config)
    return TimedLint(result, time.perf_counter() - start)

"""Unit tests for the executor backends themselves."""

from __future__ import annotations

import os

import pytest

from repro.campaign.executor import ProcessExecutor
from repro.parallel import (
    ExperimentExecutor,
    SerialExecutor,
    get_executor,
    resolve_jobs,
)


def _square(x: int) -> int:
    """Module-level so ProcessPoolExecutor can pickle it."""
    return x * x


def test_serial_map_preserves_order():
    assert SerialExecutor().map(_square, [3, 1, 2]) == [9, 1, 4]


def test_serial_map_empty():
    assert SerialExecutor().map(_square, []) == []


def test_process_map_preserves_order():
    assert ProcessExecutor(2).map(_square, list(range(8))) == [
        x * x for x in range(8)
    ]


def test_process_map_empty_skips_pool():
    assert ProcessExecutor(2).map(_square, []) == []


def test_process_rejects_nonpositive_jobs():
    with pytest.raises(ValueError):
        ProcessExecutor(0)
    with pytest.raises(ValueError):
        ProcessExecutor(-3)


def test_resolve_jobs():
    assert resolve_jobs(None) == 1
    assert resolve_jobs(1) == 1
    assert resolve_jobs(5) == 5
    assert resolve_jobs(SerialExecutor()) == 1
    assert resolve_jobs(ProcessExecutor(3)) == 3
    assert resolve_jobs(0) == (os.cpu_count() or 1)
    assert resolve_jobs(-1) == (os.cpu_count() or 1)


def test_get_executor_selection(monkeypatch):
    import repro.parallel.executor as executor_module

    monkeypatch.setattr(executor_module.os, "cpu_count", lambda: 8)
    assert isinstance(get_executor(None), SerialExecutor)
    assert isinstance(get_executor(1), SerialExecutor)
    process = get_executor(4)
    assert isinstance(process, ProcessExecutor)
    assert process.jobs == 4
    # The default pool neither retries a cell nor times it out.
    assert process.max_retries == 0 and process.cell_timeout is None


def test_get_executor_falls_back_to_serial_when_oversubscribed(
    monkeypatch, caplog
):
    import repro.parallel.executor as executor_module

    monkeypatch.setattr(executor_module.os, "cpu_count", lambda: 2)
    with caplog.at_level("INFO", logger="repro.parallel.executor"):
        fallback = get_executor(4)
    assert isinstance(fallback, SerialExecutor)
    assert any("falling back" in record.message for record in caplog.records)
    # At or below the core count, the pool is still used.
    assert isinstance(get_executor(2), ProcessExecutor)


def test_get_executor_passes_instances_through():
    class Custom(ExperimentExecutor):
        jobs = 7

        def map(self, fn, items):
            return [fn(item) for item in items]

    custom = Custom()
    assert get_executor(custom) is custom
    assert resolve_jobs(custom) == 7

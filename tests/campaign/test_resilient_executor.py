"""ProcessExecutor + ChaosExecutor semantics on cheap cells.

These tests use trivial picklable functions (not simulations) so each
recovery path -- transient raise, worker SIGKILL, hang-past-deadline,
quarantine -- is exercised in well under a second of real work.  The
campaign-level equivalence against real simulation results lives in
``test_campaign_runtime.py``.
"""

from __future__ import annotations

from concurrent.futures.process import BrokenProcessPool

import pytest

from repro.campaign.chaos import ChaosError, ChaosEvent, ChaosExecutor
from repro.campaign.executor import ProcessExecutor
from repro.parallel.executor import CellFailureError

# Module-level so ProcessPoolExecutor can pickle it.
def _triple(x):
    return 3 * x


def _triple_but_two(x):
    if x == 2:
        raise ValueError("cell 2 always fails")
    return 3 * x


def _sleep_briefly(x):
    import time

    time.sleep(0.05)
    return x


NO_BACKOFF = dict(backoff_base=0.0)


class _RefusesCellTwoOnce(ProcessExecutor):
    """Its pool refuses cell 2's first submission the way a real pool does
    once a worker has died: ``submit`` raises before the futures in flight
    are failed."""

    def __init__(self, jobs):
        super().__init__(jobs)
        self.refused = False

    def _submit(self, pool, fn, item, index, attempt):
        if index == 2 and not self.refused:
            self.refused = True
            raise BrokenProcessPool("a worker died before this submission")
        return super()._submit(pool, fn, item, index, attempt)


class TestPlainMap:
    def test_matches_serial_order(self):
        executor = ProcessExecutor(2)
        assert executor.map(_triple, range(6)) == [0, 3, 6, 9, 12, 15]

    def test_empty_items(self):
        results, report = ProcessExecutor(2).map_report(_triple, [])
        assert results == []
        assert report.retries == 0 and report.failures == []

    def test_on_result_sees_every_cell(self):
        seen = {}
        executor = ProcessExecutor(2)
        results, report = executor.map_report(
            _triple, range(5), on_result=lambda i, value: seen.__setitem__(i, value)
        )
        assert results == [0, 3, 6, 9, 12]
        assert seen == {0: 0, 1: 3, 2: 6, 3: 9, 4: 12}
        assert report.failures == []

    @pytest.mark.parametrize(
        "kwargs",
        [dict(jobs=0), dict(jobs=2, max_retries=-1), dict(jobs=2, cell_timeout=0.0)],
    )
    def test_constructor_validation(self, kwargs):
        jobs = kwargs.pop("jobs")
        with pytest.raises(ValueError):
            ProcessExecutor(jobs, **kwargs)


class TestDefaultPool:
    """``ProcessExecutor(n)`` as ``get_executor`` builds it: no retries."""

    def test_raising_cell_fails_once_and_keeps_its_siblings(self):
        with pytest.raises(CellFailureError) as excinfo:
            ProcessExecutor(2).map(_triple_but_two, range(5))
        error = excinfo.value
        assert error.results == [0, 3, None, 9, 12]
        [failure] = error.failures
        assert failure.index == 2
        assert failure.kind == "exception"
        assert failure.attempts == 1  # not retried
        assert "ValueError" in failure.error

    def test_worker_crash_quarantines_in_flight_cells_only(self):
        # Cells 0 and 1 are in flight when cell 0 kills its worker; the
        # broken pool takes both.  Cells 2.. were not yet submitted and
        # complete on the rebuilt pool.
        executor = ChaosExecutor(2, [ChaosEvent(0, "kill")])
        results, report = executor.map_report(_sleep_briefly, list(range(6)))
        failed = {failure.index for failure in report.failures}
        assert 0 in failed and failed <= {0, 1}
        for failure in report.failures:
            assert failure.kind == "worker-crash"
            assert failure.attempts == 1
        assert report.retries == 0
        assert report.pool_rebuilds == 1
        assert results == [None if i in failed else i for i in range(6)]

    def test_refused_submission_is_requeued_uncharged(self):
        # The refused cell never ran: it must neither escape map_report as
        # a raw BrokenProcessPool nor be charged an attempt (at
        # max_retries=0 a charge would quarantine it).  Only a cell still
        # in flight on the broken pool is charged.
        executor = _RefusesCellTwoOnce(2)
        results, report = executor.map_report(_triple, range(5))
        assert executor.refused
        assert results[2:] == [6, 9, 12]
        assert {failure.index for failure in report.failures} <= {0, 1}
        for failure in report.failures:
            assert failure.kind == "worker-crash"
        assert report.pool_rebuilds == 1


class TestChaosRecovery:
    def test_transient_raise_is_retried(self):
        executor = ChaosExecutor(
            2, [ChaosEvent(1, "raise", attempt=1)], max_retries=2, **NO_BACKOFF
        )
        results, report = executor.map_report(_triple, range(4))
        assert results == [0, 3, 6, 9]
        assert report.retries == 1
        assert report.worker_crashes == 0
        assert report.failures == []

    def test_killed_worker_triggers_pool_rebuild(self):
        executor = ChaosExecutor(
            2, [ChaosEvent(0, "kill", attempt=1)], max_retries=2, **NO_BACKOFF
        )
        results, report = executor.map_report(_sleep_briefly, list(range(4)))
        assert results == [0, 1, 2, 3]
        assert report.worker_crashes >= 1
        assert report.pool_rebuilds >= 1
        assert report.failures == []

    def test_hung_worker_is_reaped_by_deadline(self):
        executor = ChaosExecutor(
            2,
            [ChaosEvent(1, "hang", attempt=1)],
            cell_timeout=1.0,
            max_retries=2,
            **NO_BACKOFF,
        )
        results, report = executor.map_report(_triple, range(3))
        assert results == [0, 3, 6]
        assert report.timeouts == 1
        assert report.retries >= 1
        assert report.failures == []

    def test_innocent_inflight_cells_are_not_charged(self):
        # Cell 0 hangs; its pool-mates get resubmitted without an attempt
        # charge, so nothing but the hung cell shows up in the report.
        executor = ChaosExecutor(
            3,
            [ChaosEvent(0, "hang", attempt=1)],
            cell_timeout=1.0,
            max_retries=1,
            **NO_BACKOFF,
        )
        results, report = executor.map_report(_sleep_briefly, list(range(6)))
        assert results == [0, 1, 2, 3, 4, 5]
        assert report.timeouts == 1
        assert report.failures == []


class TestQuarantine:
    def test_exhausted_cell_is_quarantined_not_dropped(self):
        # Cell 2 raises on every one of its 1 + max_retries = 3 attempts.
        events = [ChaosEvent(2, "raise", attempt=a) for a in (1, 2, 3)]
        executor = ChaosExecutor(2, events, max_retries=2, **NO_BACKOFF)
        results, report = executor.map_report(_triple, range(5))
        assert results == [0, 3, None, 9, 12]
        assert [f.index for f in report.failures] == [2]
        failure = report.failures[0]
        assert failure.kind == "exception"
        assert failure.attempts == 3
        assert ChaosError.__name__ in failure.error

    def test_map_raises_cell_failure_error_with_partials(self):
        events = [ChaosEvent(0, "raise", attempt=a) for a in (1, 2)]
        executor = ChaosExecutor(2, events, max_retries=1, **NO_BACKOFF)
        with pytest.raises(CellFailureError) as excinfo:
            executor.map(_triple, range(3))
        error = excinfo.value
        assert [f.index for f in error.failures] == [0]
        assert error.results == [None, 3, 6]
        assert "1 of 3 cells failed" in str(error)

    def test_duplicate_chaos_event_is_rejected(self):
        with pytest.raises(ValueError):
            ChaosExecutor(
                2, [ChaosEvent(0, "raise"), ChaosEvent(0, "raise")]
            )

    def test_chaos_event_validation(self):
        with pytest.raises(ValueError):
            ChaosEvent(0, "explode")
        with pytest.raises(ValueError):
            ChaosEvent(-1, "raise")
        with pytest.raises(ValueError):
            ChaosEvent(0, "raise", attempt=0)

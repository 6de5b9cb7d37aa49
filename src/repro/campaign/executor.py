"""The process pool: ordered fan-out that survives worker failures.

:class:`ProcessExecutor` is the one process backend of
:mod:`repro.parallel` -- ordered ``map`` of a pure picklable function
over a :class:`~concurrent.futures.ProcessPoolExecutor` -- and it
survives the failure modes a long campaign actually meets:

* **crashed workers** (OOM kill, segfault): a dead worker breaks the
  whole pool; the pool is rebuilt and every in-flight cell is charged
  one attempt, since the coordinator cannot tell victim from bystander;
* **hung workers**: with ``cell_timeout`` set, each cell gets a
  wall-clock deadline from the moment it is submitted; a cell past its
  deadline gets the pool's processes killed (the only way to stop a
  running task), is charged one attempt, and innocent in-flight cells
  are resubmitted without charge;
* **raising cells**: charged one attempt, retried after exponential
  backoff (``backoff_base * 2**(attempt-1)``, capped at 5 s).

A cell that fails ``1 + max_retries`` attempts is *quarantined*: it
surfaces as a :class:`~repro.parallel.executor.CellFailure` in the
:class:`~repro.parallel.executor.ExecutorReport` (and from :meth:`map`
as a :class:`~repro.parallel.executor.CellFailureError` carrying the
ordered partial results) -- never silently dropped.  With the defaults
that ``jobs=N`` sweeps use (``max_retries=0``, no deadline) no cell is
retried, and cells not yet submitted when a worker dies still run on
the rebuilt pool.  The campaign runtime asks for two retries.

Determinism: cells are pure functions of their item, so retries and pool
rebuilds cannot change values; results are returned in submission order
and are bit-identical to :class:`~repro.parallel.executor.SerialExecutor`
output (``wall_clock_seconds`` aside).

At most ``jobs`` cells are outstanding at a time, so a submitted cell is
running (not queued) and its deadline measures *execution* time.  This
also means a broken pool only ever interrupts cells that were actually
running.
"""

from __future__ import annotations

import time
from collections import deque
from concurrent.futures import FIRST_COMPLETED, Future, ProcessPoolExecutor, wait
from concurrent.futures.process import BrokenProcessPool
from typing import Callable, Deque, Dict, List, Optional, Sequence, Tuple, TypeVar, cast

from repro.parallel.executor import (
    CellFailure,
    CellFailureError,
    ExecutorReport,
    ExperimentExecutor,
)

T = TypeVar("T")
R = TypeVar("R")

__all__ = ["ProcessExecutor"]

#: Growth factor and cap (seconds) of the backoff before a charged retry.
_BACKOFF_FACTOR = 2.0
_BACKOFF_MAX = 5.0


class _Cell:
    """Mutable bookkeeping for one submitted item."""

    __slots__ = ("index", "item", "attempts")

    def __init__(self, index: int, item: object) -> None:
        self.index = index
        self.item = item
        self.attempts = 0


class ProcessExecutor(ExperimentExecutor):
    """Ordered process fan-out with deadlines, retries, and quarantine.

    Parameters
    ----------
    jobs:
        Worker process count (>= 1).  ``jobs=1`` still goes through a
        single worker process.
    cell_timeout:
        Per-cell wall-clock deadline in seconds; ``None`` disables
        hung-worker detection.
    max_retries:
        Retries after the first attempt (so a cell runs at most
        ``1 + max_retries`` times).
    backoff_base:
        Seconds slept before the first retry of a raising cell; each
        further retry doubles it, up to 5 s.

    The pool is created per :meth:`map_report` call: experiment fan-outs
    are coarse (seconds per cell), so pool start-up is noise, and the
    short-lived pool avoids leaking workers across sweeps.
    """

    def __init__(
        self,
        jobs: int,
        *,
        cell_timeout: Optional[float] = None,
        max_retries: int = 0,
        backoff_base: float = 0.25,
    ) -> None:
        if jobs < 1:
            raise ValueError(f"jobs must be >= 1, got {jobs}")
        if max_retries < 0:
            raise ValueError(f"max_retries must be >= 0, got {max_retries}")
        if cell_timeout is not None and cell_timeout <= 0:
            raise ValueError(f"cell_timeout must be positive, got {cell_timeout}")
        self.jobs = jobs
        self.cell_timeout = cell_timeout
        self.max_retries = max_retries
        self.backoff_base = backoff_base

    # ------------------------------------------------------------------
    def map(self, fn: Callable[[T], R], items: Sequence[T]) -> List[R]:
        """Ordered results; raises :class:`CellFailureError` on quarantine."""
        results, report = self.map_report(fn, items)
        if report.failures:
            raise CellFailureError(report.failures, results)
        return cast(List[R], results)

    def map_report(
        self,
        fn: Callable[[T], R],
        items: Sequence[T],
        on_result: Optional[Callable[[int, R], None]] = None,
    ) -> Tuple[List[Optional[R]], ExecutorReport]:
        """Run every item on the pool, retrying up to ``max_retries``.

        Same contract as :meth:`ExperimentExecutor.map_report`;
        ``on_result`` fires in the coordinator, and the report also counts
        retries, timeouts, worker crashes and pool rebuilds.
        """
        items = list(items)
        report = ExecutorReport()
        results: List[Optional[R]] = [None] * len(items)
        if not items:
            return results, report
        cells = [_Cell(index, item) for index, item in enumerate(items)]
        ready: Deque[_Cell] = deque(cells)
        pool = self._new_pool(len(items))
        running: Dict["Future[R]", Tuple[_Cell, float]] = {}
        try:
            while ready or running:
                pool_broke = False
                while ready and len(running) < self.jobs:
                    cell = ready.popleft()
                    cell.attempts += 1
                    try:
                        future = self._submit(
                            pool, fn, cast(T, cell.item), cell.index, cell.attempts
                        )
                    except BrokenProcessPool:
                        # A worker died after the last wait: the pool refuses
                        # work before it fails the futures in flight.  This
                        # cell never ran, so it goes back uncharged.
                        cell.attempts -= 1
                        ready.appendleft(cell)
                        pool_broke = True
                        break
                    budget = self.cell_timeout or float("inf")
                    running[future] = (cell, time.monotonic() + budget)
                timeout = 0.0 if pool_broke else self._wait_budget(running)
                done, _pending = wait(
                    set(running), timeout=timeout, return_when=FIRST_COMPLETED
                )
                crashed: List[_Cell] = []
                for future in done:
                    cell, _deadline = running.pop(future)
                    try:
                        value = future.result()
                    except BrokenProcessPool:
                        pool_broke = True
                        crashed.append(cell)
                        continue
                    except Exception as exc:
                        self._charge(
                            cell,
                            "exception",
                            f"{type(exc).__name__}: {exc}",
                            report,
                            ready,
                            backoff=True,
                        )
                        continue
                    results[cell.index] = value
                    if on_result is not None:
                        on_result(cell.index, value)
                if pool_broke:
                    # Everything still marked running shared the broken
                    # pool; victim and bystanders are indistinguishable,
                    # so each is charged one worker-crash attempt.
                    crashed.extend(cell for cell, _ in running.values())
                    running.clear()
                    for cell in crashed:
                        report.worker_crashes += 1
                        self._charge(
                            cell,
                            "worker-crash",
                            "BrokenProcessPool: worker died mid-cell",
                            report,
                            ready,
                            backoff=False,
                        )
                    pool = self._rebuild_pool(pool, report, len(items))
                    continue
                overdue = self._overdue(running)
                if overdue:
                    # No API stops a *running* task; kill the pool's
                    # processes.  Only the overdue cells are charged --
                    # in-flight innocents are resubmitted for free.
                    for cell in overdue:
                        report.timeouts += 1
                        self._charge(
                            cell,
                            "timeout",
                            f"cell exceeded {self.cell_timeout}s deadline",
                            report,
                            ready,
                            backoff=False,
                        )
                    innocents = [
                        cell
                        for cell, _ in running.values()
                        if cell not in overdue
                    ]
                    running.clear()
                    for cell in innocents:
                        cell.attempts -= 1  # resubmission is not a retry
                        ready.appendleft(cell)
                    pool = self._rebuild_pool(pool, report, len(items), kill=True)
        finally:
            self._shutdown_pool(pool)
        report.failures.sort(key=lambda failure: failure.index)
        return results, report

    # ------------------------------------------------------------------
    # Hooks and helpers
    # ------------------------------------------------------------------
    def _submit(
        self,
        pool: ProcessPoolExecutor,
        fn: Callable[[T], R],
        item: T,
        index: int,
        attempt: int,
    ) -> "Future[R]":
        """Submission hook; the chaos executor overrides this to sabotage
        scripted (index, attempt) pairs."""
        return pool.submit(fn, item)

    def _charge(
        self,
        cell: _Cell,
        kind: str,
        error: str,
        report: ExecutorReport,
        ready: Deque[_Cell],
        *,
        backoff: bool,
    ) -> None:
        """Record a failed attempt; requeue or quarantine the cell."""
        if cell.attempts > self.max_retries:
            report.failures.append(
                CellFailure(cell.index, kind, error, cell.attempts)
            )
            return
        report.retries += 1
        if backoff:
            exponent = max(0, cell.attempts - 1)
            delay = min(_BACKOFF_MAX, self.backoff_base * _BACKOFF_FACTOR**exponent)
            if delay > 0:
                time.sleep(delay)
        ready.append(cell)

    def _wait_budget(
        self, running: Dict["Future[R]", Tuple[_Cell, float]]
    ) -> Optional[float]:
        """Seconds until the earliest in-flight deadline (None = no cap)."""
        if self.cell_timeout is None or not running:
            return None
        earliest = min(deadline for _, deadline in running.values())
        return max(0.0, earliest - time.monotonic())

    def _overdue(
        self, running: Dict["Future[R]", Tuple[_Cell, float]]
    ) -> List[_Cell]:
        if self.cell_timeout is None:
            return []
        now = time.monotonic()
        return [cell for cell, deadline in running.values() if now >= deadline]

    def _new_pool(self, n_items: int) -> ProcessPoolExecutor:
        return ProcessPoolExecutor(max_workers=min(self.jobs, max(1, n_items)))

    def _rebuild_pool(
        self,
        pool: ProcessPoolExecutor,
        report: ExecutorReport,
        n_items: int,
        *,
        kill: bool = False,
    ) -> ProcessPoolExecutor:
        if kill:
            # SIGKILL the pool's workers: a hung task cannot be cancelled.
            processes = getattr(pool, "_processes", None) or {}
            for process in list(processes.values()):
                process.kill()
        self._shutdown_pool(pool)
        report.pool_rebuilds += 1
        return self._new_pool(n_items)

    @staticmethod
    def _shutdown_pool(pool: ProcessPoolExecutor) -> None:
        try:
            pool.shutdown(wait=True, cancel_futures=True)
        except Exception:  # pragma: no cover - teardown best effort
            pass

    def __repr__(self) -> str:  # pragma: no cover - debug aid
        return (
            f"<ProcessExecutor jobs={self.jobs} "
            f"timeout={self.cell_timeout} max_retries={self.max_retries}>"
        )

"""Executor backends for fanning out independent simulation cells.

Design notes
------------
* **Order**: every backend returns results in submission order, so callers
  can ``zip`` inputs with outputs and serial/parallel runs are comparable
  element by element.
* **Determinism**: workers receive a picklable
  :class:`~repro.scenarios.config.SimulationConfig` and run
  :func:`~repro.scenarios.runner.run_scenario` -- a pure function of the
  config.  Nothing about the pool (worker identity, completion order,
  host) can leak into a result except ``wall_clock_seconds``.
* **Pluggability**: anything with a ``map(fn, items)`` returning an
  ordered list satisfies :class:`ExperimentExecutor`; pass an instance
  wherever a ``jobs=`` parameter is accepted if the two bundled backends
  do not fit (e.g. a cluster submitter).
* **One pool**: the process backend is
  :class:`repro.campaign.executor.ProcessExecutor`, imported lazily here.
  It lives beside the campaign runtime because its per-cell deadlines
  read the wall clock, which this package never does.
"""

from __future__ import annotations

import logging
import os
from dataclasses import dataclass, field, replace
from typing import (
    TYPE_CHECKING,
    Callable,
    Iterable,
    List,
    Optional,
    Sequence,
    Tuple,
    TypeVar,
    Union,
    cast,
)

if TYPE_CHECKING:  # imported lazily at runtime to avoid a cycle
    from repro.scenarios.config import SimulationConfig
    from repro.scenarios.results import RunResult

T = TypeVar("T")
R = TypeVar("R")

_log = logging.getLogger(__name__)

__all__ = [
    "CellFailure",
    "CellFailureError",
    "ExecutorReport",
    "ExperimentExecutor",
    "SerialExecutor",
    "resolve_jobs",
    "get_executor",
    "map_scenarios",
]


@dataclass(frozen=True)
class CellFailure:
    """Structured record of one cell that failed to produce a result.

    Replaces the old all-or-nothing failure mode where the first worker
    exception out of ``pool.map`` destroyed every completed sibling
    result: failures are now first-class data that travel alongside the
    partial result list, so callers (and the campaign quarantine report)
    can account for every cell.
    """

    #: Position of the failed item in the submitted sequence.
    index: int
    #: "exception" (fn raised), "worker-crash" (process died mid-cell),
    #: or "timeout" (exceeded the process pool's per-cell deadline).
    kind: str
    #: ``TypeName: message`` of the final error observed.
    error: str
    #: Execution attempts consumed (1 unless the process pool retried).
    attempts: int = 1


class CellFailureError(Exception):
    """Raised when a fan-out finishes with one or more failed cells.

    Carries the full ordered partial-result list (``None`` at failed
    slots) plus one :class:`CellFailure` per failed cell -- nothing that
    completed is thrown away.
    """

    def __init__(self, failures: Sequence[CellFailure], results: Sequence) -> None:
        self.failures = list(failures)
        self.results = list(results)
        completed = sum(1 for r in self.results if r is not None)
        detail = "; ".join(
            f"cell {f.index} [{f.kind}] {f.error}" for f in self.failures[:3]
        )
        if len(self.failures) > 3:
            detail += f"; ... {len(self.failures) - 3} more"
        super().__init__(
            f"{len(self.failures)} of {len(self.results)} cells failed "
            f"({completed} completed): {detail}"
        )


@dataclass
class ExecutorReport:
    """What one ``map_report`` did beyond computing results."""

    #: Resubmissions that charged an attempt (exceptions, crashes, hangs).
    retries: int = 0
    #: Cells whose deadline expired at least once.
    timeouts: int = 0
    #: Attempts lost to a broken pool (worker death).
    worker_crashes: int = 0
    #: Times the process pool was torn down and rebuilt.
    pool_rebuilds: int = 0
    #: Cells that failed for good, in index order.
    failures: List[CellFailure] = field(default_factory=list)


class ExperimentExecutor:
    """Interface: ``map`` a picklable function over items, in order."""

    #: Worker count the backend fans out to (1 for serial).
    jobs: int = 1

    def map(self, fn: Callable[[T], R], items: Sequence[T]) -> List[R]:
        raise NotImplementedError

    def map_report(
        self,
        fn: Callable[[T], R],
        items: Sequence[T],
        on_result: Optional[Callable[[int, R], None]] = None,
    ) -> Tuple[List[Optional[R]], ExecutorReport]:
        """Run every item; never raises for cell faults.

        Returns the ordered result list (``None`` at failed slots) plus
        an :class:`ExecutorReport` naming each failed cell.
        ``on_result(index, result)`` fires as each cell completes -- the
        campaign runtime journals through it, so results survive even if
        the caller is later killed.

        This default runs one item at a time through :meth:`map`, so a
        ``map``-only executor loses at most the cell in flight.
        """
        items = list(items)
        report = ExecutorReport()
        results: List[Optional[R]] = [None] * len(items)
        for index, item in enumerate(items):
            try:
                value = self.map(fn, [item])[0]
            except CellFailureError as exc:
                report.failures.append(replace(exc.failures[0], index=index))
            except Exception as exc:
                report.failures.append(
                    CellFailure(index, "exception", f"{type(exc).__name__}: {exc}")
                )
            else:
                results[index] = value
                if on_result is not None:
                    on_result(index, value)
        return results, report


class SerialExecutor(ExperimentExecutor):
    """Run every cell in the calling process, in submission order."""

    jobs = 1

    def map(self, fn: Callable[[T], R], items: Sequence[T]) -> List[R]:
        return [fn(item) for item in items]

    def __repr__(self) -> str:  # pragma: no cover - debug aid
        return "<SerialExecutor>"


JobsSpec = Union[None, int, ExperimentExecutor]


def resolve_jobs(jobs: JobsSpec) -> int:
    """Normalize a ``jobs=`` value to a positive worker count.

    ``None`` -> 1 (serial), ``0``/negative -> all CPUs, an executor
    instance -> its ``jobs`` attribute.
    """
    if jobs is None:
        return 1
    if isinstance(jobs, ExperimentExecutor):
        return jobs.jobs
    if jobs <= 0:
        return os.cpu_count() or 1
    return jobs


def get_executor(jobs: JobsSpec) -> ExperimentExecutor:
    """Build (or pass through) the executor for a ``jobs=`` parameter.

    ``None`` and ``1`` select :class:`SerialExecutor`; any other integer
    selects :class:`~repro.campaign.executor.ProcessExecutor` with that
    many workers (``0`` and negatives mean "all CPUs"), whose defaults
    neither retry a cell nor time it out; an :class:`ExperimentExecutor`
    instance is returned as-is.

    When the request asks for more workers than the host has cores, a pool
    cannot run them in parallel -- it only adds pickling and start-up
    overhead (on the 1-CPU CI host, ``jobs=4`` sweeps measured *slower*
    than ``jobs=1``).  Such requests therefore fall back to
    :class:`SerialExecutor` with a logged note; results are bit-identical
    either way.  Pass a ``ProcessExecutor`` instance to keep the pool.
    """
    if isinstance(jobs, ExperimentExecutor):
        return jobs
    count = resolve_jobs(jobs)
    if count == 1:
        return SerialExecutor()
    cpus = os.cpu_count() or 1
    if count > cpus:
        _log.info(
            "jobs=%d exceeds the %d available CPU(s); falling back to the "
            "serial executor (results are identical; pass a ProcessExecutor "
            "instance to keep the pool)",
            count,
            cpus,
        )
        return SerialExecutor()
    from repro.campaign.executor import ProcessExecutor

    return ProcessExecutor(count)


def map_scenarios(
    configs: "Iterable[SimulationConfig]",
    jobs: JobsSpec = None,
    campaign_dir: Union[str, "os.PathLike[str]", None] = None,
) -> "List[RunResult]":
    """Run :func:`~repro.scenarios.runner.run_scenario` over ``configs``.

    The workhorse behind every ``jobs=`` parameter in the scenario layer:
    results come back in config order, one :class:`RunResult` each.

    With ``campaign_dir`` set, execution is journaled and resumable: every
    completed cell is persisted there atomically, cells already journaled
    by an earlier (possibly killed) run are skipped, and worker crashes /
    hangs are retried with backoff instead of aborting the sweep (see
    :mod:`repro.campaign`).  Results are bit-identical either way.
    """
    from repro.scenarios.runner import run_scenario

    configs = list(configs)
    if campaign_dir is not None:
        from repro.campaign.runtime import run_campaign

        outcome = run_campaign(configs, campaign_dir, jobs=jobs)
        outcome.raise_on_failures()
        return cast("List[RunResult]", outcome.results)
    return get_executor(jobs).map(run_scenario, configs)

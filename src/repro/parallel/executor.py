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
"""

from __future__ import annotations

import logging
import os
from concurrent.futures import ProcessPoolExecutor, as_completed
from concurrent.futures.process import BrokenProcessPool
from dataclasses import dataclass
from typing import (
    TYPE_CHECKING,
    Callable,
    Iterable,
    List,
    Optional,
    Sequence,
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
    "ExperimentExecutor",
    "SerialExecutor",
    "ProcessExecutor",
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
    #: or "timeout" (exceeded the resilient executor's per-cell deadline).
    kind: str
    #: ``TypeName: message`` of the final error observed.
    error: str
    #: Execution attempts consumed (1 for the plain process executor;
    #: the resilient executor counts its retries here).
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


class ExperimentExecutor:
    """Interface: ``map`` a picklable function over items, in order."""

    #: Worker count the backend fans out to (1 for serial).
    jobs: int = 1

    def map(self, fn: Callable[[T], R], items: Sequence[T]) -> List[R]:
        raise NotImplementedError


class SerialExecutor(ExperimentExecutor):
    """Run every cell in the calling process, in submission order."""

    jobs = 1

    def map(self, fn: Callable[[T], R], items: Sequence[T]) -> List[R]:
        return [fn(item) for item in items]

    def __repr__(self) -> str:  # pragma: no cover - debug aid
        return "<SerialExecutor>"


class ProcessExecutor(ExperimentExecutor):
    """Fan cells over a :class:`~concurrent.futures.ProcessPoolExecutor`.

    Parameters
    ----------
    jobs:
        Worker process count (>= 1).  ``jobs=1`` still goes through a
        single worker process, which is occasionally useful to prove that
        process isolation itself does not change results.

    The pool is created per :meth:`map` call: experiment fan-outs are
    coarse (seconds per cell), so pool start-up is noise, and the
    short-lived pool avoids leaking workers across sweeps.
    """

    def __init__(self, jobs: int) -> None:
        if jobs < 1:
            raise ValueError(f"jobs must be >= 1, got {jobs}")
        self.jobs = jobs

    def map(self, fn: Callable[[T], R], items: Sequence[T]) -> List[R]:
        items = list(items)
        if not items:
            return []
        workers = min(self.jobs, len(items))
        results: List[Optional[R]] = [None] * len(items)
        done = [False] * len(items)
        failures: List[CellFailure] = []
        with ProcessPoolExecutor(max_workers=workers) as pool:
            # One future per item (rather than pool.map) so each cell's
            # outcome is individually observable: a raising or crashed
            # cell becomes a CellFailure instead of destroying the whole
            # ordered result list.  Per-item submission also keeps
            # scheduling granular for unevenly sized cells.
            futures = {
                pool.submit(fn, item): index for index, item in enumerate(items)
            }
            for future in as_completed(futures):
                index = futures[future]
                try:
                    results[index] = future.result()
                    done[index] = True
                except BrokenProcessPool as exc:
                    # A dead worker poisons every in-flight future with
                    # this same exception; each affected cell gets its
                    # own worker-crash record.
                    failures.append(
                        CellFailure(
                            index=index,
                            kind="worker-crash",
                            error=f"{type(exc).__name__}: {exc}",
                        )
                    )
                except Exception as exc:
                    failures.append(
                        CellFailure(
                            index=index,
                            kind="exception",
                            error=f"{type(exc).__name__}: {exc}",
                        )
                    )
        if failures:
            failures.sort(key=lambda failure: failure.index)
            raise CellFailureError(failures, results)
        assert all(done), "executor lost track of a cell"
        return cast(List[R], results)

    def __repr__(self) -> str:  # pragma: no cover - debug aid
        return f"<ProcessExecutor jobs={self.jobs}>"


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


def get_executor(
    jobs: JobsSpec, *, force_processes: bool = False
) -> ExperimentExecutor:
    """Build (or pass through) the executor for a ``jobs=`` parameter.

    ``None`` and ``1`` select :class:`SerialExecutor`; any other integer
    selects :class:`ProcessExecutor` with that many workers (``0`` and
    negatives mean "all CPUs"); an :class:`ExperimentExecutor` instance is
    returned as-is.

    When the request asks for more workers than the host has cores, a pool
    cannot run them in parallel -- it only adds pickling and start-up
    overhead (on the 1-CPU CI host, ``jobs=4`` sweeps measured *slower*
    than ``jobs=1``).  Such requests therefore fall back to
    :class:`SerialExecutor` with a logged note; results are bit-identical
    either way.  Pass ``force_processes=True`` to get the pool regardless
    (tests proving process isolation does not change results need it).
    """
    if isinstance(jobs, ExperimentExecutor):
        return jobs
    count = resolve_jobs(jobs)
    if count == 1:
        return SerialExecutor()
    cpus = os.cpu_count() or 1
    if count > cpus and not force_processes:
        _log.info(
            "jobs=%d exceeds the %d available CPU(s); falling back to the "
            "serial executor (results are identical; pass "
            "force_processes=True to keep the pool)",
            count,
            cpus,
        )
        return SerialExecutor()
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

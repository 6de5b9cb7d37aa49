"""The journal x executor composition behind ``campaign_dir=``.

:func:`run_campaign` is what :func:`repro.parallel.map_scenarios` routes
through when a campaign directory is given:

1. load the journal and *skip* every already-recorded cell (dedup by
   config digest -- identical configs share one record);
2. run the remaining cells through one ``map_report`` call, journaling
   each one the moment it completes (serially in-process for ``jobs=1``,
   else on a :class:`~repro.campaign.executor.ProcessExecutor` that
   retries crashed workers and raising cells);
3. merge journaled + fresh results back into config order and report
   what happened (:class:`CampaignReport`): skipped/executed counts,
   retry totals, and the quarantined failures -- never silently dropped.

Because cells are pure functions of config and the journal round-trip is
signature-exact, a campaign interrupted by ``kill -9`` and resumed -- any
number of times, with any executor -- merges to results bit-identical to
one uninterrupted serial run.
"""

from __future__ import annotations

import os
from dataclasses import dataclass, field
from typing import Dict, List, Optional, Tuple, Union

from repro.campaign.executor import ProcessExecutor
from repro.campaign.journal import CampaignJournal
from repro.parallel.executor import (
    CellFailure,
    CellFailureError,
    JobsSpec,
    get_executor,
    resolve_jobs,
)
from repro.scenarios.config import SimulationConfig
from repro.scenarios.results import RunResult
from repro.scenarios.serialize import config_digest

__all__ = ["CampaignReport", "CampaignResult", "run_campaign"]


@dataclass
class CampaignReport:
    """Accounting for one :func:`run_campaign` call."""

    #: Cells requested (positions in the config list, duplicates included).
    total: int = 0
    #: Cells satisfied straight from the journal.
    skipped: int = 0
    #: Unique cells actually executed this call.
    executed: int = 0
    #: Attempt-charging resubmissions across all cells.
    retries: int = 0
    #: Cells that blew a per-cell deadline at least once.
    timeouts: int = 0
    #: Attempts lost to dead workers.
    worker_crashes: int = 0
    #: Process-pool teardown/rebuild cycles.
    pool_rebuilds: int = 0
    #: Quarantined cells (exhausted retries), in config-position order.
    failures: List[CellFailure] = field(default_factory=list)

    def describe(self) -> str:
        parts = [
            f"{self.total} cells: {self.skipped} journaled, "
            f"{self.executed} executed"
        ]
        if self.retries:
            parts.append(
                f"{self.retries} retries ({self.timeouts} timeouts, "
                f"{self.worker_crashes} worker crashes, "
                f"{self.pool_rebuilds} pool rebuilds)"
            )
        if self.failures:
            parts.append(f"{len(self.failures)} quarantined")
        return "; ".join(parts)


@dataclass
class CampaignResult:
    """Merged results (config order; ``None`` at quarantined slots)."""

    results: List[Optional[RunResult]]
    report: CampaignReport

    def raise_on_failures(self) -> None:
        """Surface quarantined cells as a :class:`CellFailureError`."""
        if self.report.failures:
            raise CellFailureError(self.report.failures, self.results)


def run_campaign(
    configs: List[SimulationConfig],
    campaign_dir: Union[str, "os.PathLike[str]"],
    jobs: JobsSpec = None,
) -> CampaignResult:
    """Run ``configs`` under the journal at ``campaign_dir``.

    ``jobs`` follows the usual contract (``None``/1 serial, N fans out,
    an executor instance is used as-is), except that a worker count
    always gets a :class:`ProcessExecutor` with two retries, even past
    the host's core count -- robustness is the point of a campaign.
    """
    from repro.scenarios.runner import run_scenario

    configs = list(configs)
    journal = CampaignJournal(campaign_dir)
    journal.ensure()
    report = CampaignReport(total=len(configs))

    digests = [config_digest(config) for config in configs]
    known = journal.load()
    results: List[Optional[RunResult]] = [None] * len(configs)

    # Unique cells still to run, in first-appearance order.
    pending: List[Tuple[str, SimulationConfig]] = []
    seen = set()
    for digest, config in zip(digests, configs):
        if digest in known:
            report.skipped += 1
            continue
        if digest not in seen:
            seen.add(digest)
            pending.append((digest, config))

    fresh: Dict[str, RunResult] = {}
    quarantined: Dict[str, CellFailure] = {}
    if pending:
        report.executed = len(pending)
        if isinstance(jobs, int) and resolve_jobs(jobs) > 1:
            executor = ProcessExecutor(resolve_jobs(jobs), max_retries=2)
        else:
            executor = get_executor(jobs)

        def journal_result(index: int, result: RunResult) -> None:
            journal.record(result)
            fresh[pending[index][0]] = result

        _, exec_report = executor.map_report(
            run_scenario,
            [config for _, config in pending],
            on_result=journal_result,
        )
        report.retries = exec_report.retries
        report.timeouts = exec_report.timeouts
        report.worker_crashes = exec_report.worker_crashes
        report.pool_rebuilds = exec_report.pool_rebuilds
        for failure in exec_report.failures:
            digest, config = pending[failure.index]
            journal.record_failure(
                config, failure.kind, failure.error, failure.attempts
            )
            quarantined[digest] = failure

    # Merge journaled + fresh results back into config-position order.
    for position, digest in enumerate(digests):
        if digest in known:
            results[position] = known[digest].result
        elif digest in fresh:
            results[position] = fresh[digest]
        elif digest in quarantined:
            inner = quarantined[digest]
            report.failures.append(
                CellFailure(
                    index=position,
                    kind=inner.kind,
                    error=inner.error,
                    attempts=inner.attempts,
                )
            )
    if not report.failures:
        # Campaign complete: fold the per-cell files into one journal.
        journal.compact()
    return CampaignResult(results=results, report=report)

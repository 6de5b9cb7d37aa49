"""One-call scenario execution."""

from __future__ import annotations

from typing import Dict, Iterable, List, Optional

from repro.parallel import map_scenarios
from repro.parallel.executor import JobsSpec
from repro.scenarios.builder import Simulation
from repro.scenarios.config import SimulationConfig
from repro.scenarios.results import RunResult

__all__ = ["run_scenario", "run_many"]


def run_scenario(config: SimulationConfig) -> RunResult:
    """Build, run to ``config.sim_time``, and summarize one scenario.

    A pure function of ``config``: repeated calls (in any process) return
    identical results except ``wall_clock_seconds``.  This is the unit of
    work :mod:`repro.parallel` fans out.
    """
    return Simulation(config).run()


def run_many(
    configs: Iterable[SimulationConfig],
    labels: Optional[Iterable[str]] = None,
    jobs: JobsSpec = None,
    campaign_dir: Optional[str] = None,
) -> Dict[str, RunResult]:
    """Run several scenarios; keys are the given labels or run indexes.

    ``jobs`` selects the executor (see :mod:`repro.parallel`); insertion
    order of the returned dict always follows ``configs``.
    ``campaign_dir`` makes the batch journaled and resumable (see
    :mod:`repro.campaign`).
    """
    configs = list(configs)
    if labels is None:
        keys: List[str] = [f"run-{index}" for index in range(len(configs))]
    else:
        keys = list(labels)
        if len(keys) != len(configs):
            raise ValueError(
                f"{len(configs)} configs but {len(keys)} labels"
            )
    results = map_scenarios(configs, jobs=jobs, campaign_dir=campaign_dir)
    return dict(zip(keys, results))

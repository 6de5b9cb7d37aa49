"""Determinism regression tests for the fault layer.

Two contracts:

1. **Faulted runs replay**: the same seed + FaultPlan produces identical
   ``RunResult.signature()`` tuples when repeated and across ``jobs=1`` vs
   four-worker process-pool executions.
2. **Faults-disabled runs are frozen**: with ``faults=None`` and
   ``degradation=None``, signatures are byte-identical to the recorded
   pre-fault-layer baselines (``baseline_signatures.json``, generated on
   the commit before the fault subsystem landed).
"""

from __future__ import annotations

import hashlib
import json
from pathlib import Path

import pytest

from repro.campaign.executor import ProcessExecutor
from repro.faults import (
    ChurnProcess,
    FaultPlan,
    GilbertElliottConfig,
    PartitionProcess,
    scripted_crashes,
)
from repro.parallel import map_scenarios
from repro.recovery.degrade import DegradationConfig
from repro.scenarios.config import SimulationConfig
from repro.scenarios.runner import run_scenario

BASELINES = json.loads(
    (Path(__file__).parent / "baseline_signatures.json").read_text()
)

#: The exact scenario cells the baseline digests were recorded with.
BASELINE_COMMON = dict(
    n_dispatchers=24,
    n_patterns=24,
    pi_max=2,
    publish_rate=30.0,
    sim_time=3.0,
    measure_start=0.5,
    measure_end=2.5,
    buffer_size=400,
)
BASELINE_CELLS = {
    "combined-pull-lossy": dict(algorithm="combined-pull", error_rate=0.1, seed=42),
    "push-lossy": dict(algorithm="push", error_rate=0.05, seed=7),
    "subscriber-pull-reconf": dict(
        algorithm="subscriber-pull",
        error_rate=0.0,
        reconfiguration_interval=0.15,
        seed=11,
    ),
}


def _digest(result) -> str:
    # signature()[0] is the config object itself; the baselines were
    # recorded over everything after it so adding config *fields* (the
    # fault knobs) cannot invalidate them.
    return hashlib.sha256(repr(result.signature()[1:]).encode()).hexdigest()


FAULTED_CONFIG = SimulationConfig(
    n_dispatchers=16,
    n_patterns=16,
    pi_max=2,
    publish_rate=25.0,
    error_rate=0.05,
    sim_time=3.0,
    measure_start=0.5,
    measure_end=2.5,
    buffer_size=300,
    algorithm="combined-pull",
    seed=13,
    faults=FaultPlan(
        crashes=scripted_crashes([2, 9], at=1.0, duration=0.6),
        churn=ChurnProcess(rate=1.5, mean_downtime=0.3, start=0.5),
        partition_process=PartitionProcess(interval=1.0, duration=0.2, start=0.5),
        link_loss=GilbertElliottConfig.from_epsilon(0.05, mean_burst_length=4.0),
        oob_loss=GilbertElliottConfig.from_epsilon(0.02, mean_burst_length=3.0),
    ),
    degradation=DegradationConfig(),
)


class TestFaultedDeterminism:
    def test_repeat_runs_are_identical(self):
        first = run_scenario(FAULTED_CONFIG)
        second = run_scenario(FAULTED_CONFIG)
        assert first.signature() == second.signature()
        # The plan actually did something in every fault family.
        assert first.faults.crashes > 0
        assert first.faults.restarts > 0
        assert first.faults.partitions > 0
        assert first.faults.burst_drops > 0

    def test_jobs1_and_jobs4_are_identical(self):
        configs = [
            FAULTED_CONFIG,
            FAULTED_CONFIG.replace(seed=14),
            FAULTED_CONFIG.replace(algorithm="push"),
            FAULTED_CONFIG.replace(faults=None, degradation=None),
        ]
        serial = map_scenarios(configs, jobs=1)
        fanned = map_scenarios(configs, jobs=ProcessExecutor(4))
        for left, right in zip(serial, fanned):
            assert left.signature() == right.signature()

    def test_fault_stats_participate_in_signature(self):
        result = run_scenario(FAULTED_CONFIG)
        assert result.signature()[-1] == result.faults.as_tuple()


class TestFrozenBaselines:
    @pytest.mark.parametrize("name", sorted(BASELINE_CELLS))
    def test_faults_disabled_matches_pre_fault_baseline(self, name):
        config = SimulationConfig(**BASELINE_COMMON, **BASELINE_CELLS[name])
        assert config.faults is None and config.degradation is None
        result = run_scenario(config)
        assert _digest(result) == BASELINES[name], (
            f"faults-disabled signature for {name!r} diverged from the "
            "pre-fault-layer baseline: the fault layer is not inert"
        )

    def test_empty_plan_behaves_like_none(self):
        """An explicitly empty FaultPlan must not perturb anything either
        (no injector, no extra draws, no signature element)."""
        name = "push-lossy"
        config = SimulationConfig(
            **BASELINE_COMMON, **BASELINE_CELLS[name], faults=FaultPlan()
        )
        result = run_scenario(config)
        assert _digest(result) == BASELINES[name]

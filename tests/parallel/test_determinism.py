"""Parallel fan-out must be bit-identical to serial execution.

These tests run small but real simulations twice -- serially and over a
four-worker process pool -- and compare :meth:`RunResult.signature`, which
covers every deterministic field (everything except ``wall_clock_seconds``).
Any divergence means pool state leaked into a result.
"""

from __future__ import annotations

from repro.campaign.executor import ProcessExecutor
from repro.scenarios.config import SimulationConfig
from repro.scenarios.replication import run_replications
from repro.scenarios.results import RunResult
from repro.scenarios.sweep import sweep, sweep_algorithms


def _base_config() -> SimulationConfig:
    return SimulationConfig(
        n_dispatchers=16,
        n_patterns=20,
        algorithm="combined-pull",
        error_rate=0.1,
        publish_rate=30.0,
        buffer_size=150,
        sim_time=2.0,
        measure_start=0.4,
        measure_end=1.6,
        seed=11,
    )


def _signatures(points):
    return [point.result.signature() for point in points]


def test_sweep_parallel_matches_serial():
    base = _base_config()
    serial = sweep(base, "error_rate", [0.05, 0.1, 0.15], jobs=1)
    fanned = sweep(base, "error_rate", [0.05, 0.1, 0.15], jobs=ProcessExecutor(4))
    assert [p.x for p in serial] == [p.x for p in fanned]
    assert _signatures(serial) == _signatures(fanned)


def test_sweep_algorithms_parallel_matches_serial():
    base = _base_config()
    algorithms = ["subscriber-pull", "random-push"]
    serial = sweep_algorithms(base, algorithms, jobs=1)
    fanned = sweep_algorithms(base, algorithms, jobs=ProcessExecutor(4))
    assert list(serial) == list(fanned)
    for algorithm in algorithms:
        assert _signatures(serial[algorithm]) == _signatures(fanned[algorithm])


def test_run_replications_parallel_matches_serial():
    base = _base_config()
    seeds = [1, 2, 3, 4]
    serial = run_replications(base, seeds, metric=None, jobs=1)
    fanned = run_replications(base, seeds, metric=None, jobs=ProcessExecutor(4))
    assert [r.signature() for r in serial] == [r.signature() for r in fanned]


def test_run_replications_summary_matches_serial():
    base = _base_config()
    seeds = [1, 2, 3]
    serial = run_replications(base, seeds, jobs=1)
    fanned = run_replications(base, seeds, jobs=ProcessExecutor(4))
    assert serial == fanned  # frozen dataclass: full metric equality


def test_run_replications_metric_none_returns_results():
    base = _base_config()
    results = run_replications(base, [1, 2], metric=None)
    assert isinstance(results, list)
    assert len(results) == 2
    assert all(isinstance(r, RunResult) for r in results)
    assert [r.config.seed for r in results] == [1, 2]
    summary = run_replications(base, [1, 2])
    assert summary.values == tuple(r.delivery_rate for r in results)


def test_signature_ignores_wall_clock():
    from repro.scenarios.runner import run_scenario

    config = _base_config().replace(sim_time=1.0, measure_start=0.2, measure_end=0.8)
    first = run_scenario(config)
    second = run_scenario(config)
    # Wall clock always differs between runs; the signature must not see it.
    assert first.signature() == second.signature()

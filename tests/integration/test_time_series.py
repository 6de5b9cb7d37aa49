"""End-to-end checks of the delivery-rate time series (Figure 3 shape)."""

from __future__ import annotations

import pytest

from repro.scenarios.config import SimulationConfig
from repro.scenarios.runner import run_scenario

BASE = dict(
    n_dispatchers=20,
    n_patterns=14,
    publish_rate=25.0,
    sim_time=5.0,
    measure_start=0.5,
    measure_end=3.5,
    buffer_size=300,
    seed=5,
)


class TestSeriesShape:
    def test_reconfiguration_carves_dips_recovery_levels_them(self):
        none_run = run_scenario(
            SimulationConfig(
                algorithm="none",
                error_rate=0.0,
                reconfiguration_interval=0.4,
                **BASE,
            )
        )
        pull_run = run_scenario(
            SimulationConfig(
                algorithm="combined-pull",
                error_rate=0.0,
                reconfiguration_interval=0.4,
                **BASE,
            )
        )
        window = (0.5, 3.5)
        none_series = none_run.series.clipped(*window)
        pull_series = pull_run.series.clipped(*window)
        # The baseline has visible dips...
        assert none_series.min_value() < 0.9
        # ...that recovery levels out.
        assert pull_series.min_value() > none_series.min_value()

    def test_lossy_series_is_roughly_flat(self):
        run = run_scenario(
            SimulationConfig(algorithm="none", error_rate=0.1, **BASE)
        )
        series = run.series.clipped(0.5, 3.5)
        values = [v for _, v in series.defined()]
        assert len(values) >= 20
        mean = sum(values) / len(values)
        # Uniform loss: bins scatter around the mean without trends; no
        # bin should sit wildly away from it.
        assert all(abs(v - mean) < 0.35 for v in values)

    def test_baseline_series_bounds_recovery_series(self):
        run = run_scenario(
            SimulationConfig(algorithm="combined-pull", error_rate=0.15, **BASE)
        )
        with_recovery = run.series.clipped(0.5, 3.5)
        baseline_only = run.series_baseline.clipped(0.5, 3.5)
        for (_, full), (_, base) in zip(
            with_recovery.defined(), baseline_only.defined()
        ):
            assert full >= base

    def test_series_covers_the_whole_run(self):
        run = run_scenario(
            SimulationConfig(algorithm="none", error_rate=0.1, **BASE)
        )
        assert run.series.times[0] == pytest.approx(0.05)
        assert run.series.times[-1] == pytest.approx(4.95)

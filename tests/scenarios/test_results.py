"""Tests for the RunResult container helpers."""

from __future__ import annotations

import pytest

from repro.scenarios.builder import SERIES_BIN_WIDTH
from repro.scenarios.config import SimulationConfig
from repro.scenarios.runner import run_scenario

CONFIG = SimulationConfig(
    n_dispatchers=10,
    n_patterns=8,
    publish_rate=10.0,
    error_rate=0.1,
    algorithm="push",
    sim_time=2.0,
    measure_start=0.2,
    measure_end=1.2,
    buffer_size=80,
    seed=3,
)


class TestRunResult:
    def test_summary_row_fields(self):
        result = run_scenario(CONFIG)
        row = result.summary_row()
        assert row["algorithm"] == "push"
        assert 0.0 <= row["delivery_rate"] <= 1.0
        assert 0.0 <= row["baseline_rate"] <= row["delivery_rate"] + 1e-9
        assert row["events_published"] == result.events_published
        assert row["gossip_per_dispatcher"] >= 0.0

    def test_property_shortcuts_agree_with_stats(self):
        result = run_scenario(CONFIG)
        assert result.delivery_rate == result.delivery.delivery_rate
        assert result.baseline_rate == result.delivery.baseline_rate

    def test_full_window_supersets_measure_window(self):
        result = run_scenario(CONFIG)
        assert result.delivery_full.events >= result.delivery.events
        assert result.delivery_full.expected >= result.delivery.expected

    def test_series_lengths_match_bins(self):
        result = run_scenario(CONFIG)
        expected_bins = int(CONFIG.sim_time / SERIES_BIN_WIDTH)
        assert len(result.series) == expected_bins
        assert len(result.series_baseline) == expected_bins

    def test_repr_is_compact(self):
        result = run_scenario(CONFIG)
        text = repr(result)
        assert "push" in text
        assert "delivery=" in text

"""Tests for SimulationConfig -- including the paper's Figure 2 defaults."""

from __future__ import annotations

import pytest

import repro.scenarios.config as config_module
from repro.scenarios.config import SimulationConfig


class TestFigure2Defaults:
    def test_figure2_defaults(self):
        """The default configuration IS the paper's Figure 2."""
        config = SimulationConfig()
        assert config.n_dispatchers == 100  # N
        assert config.pi_max == 2  # pi_max
        assert config.publish_rate == 50.0  # publish/s
        assert config.error_rate == 0.1  # epsilon
        assert config.reconfiguration_interval is None  # rho = +inf
        assert config.buffer_size == 1500  # beta
        assert config.gossip_interval == 0.03  # T
        # And the accompanying prose values:
        assert config.n_patterns == 70  # Pi
        assert config.max_event_patterns == 3  # footnote 5
        assert config.max_degree == 4  # "at most four others"
        assert config.sim_time == 25.0
        assert config.bandwidth_bps == 10_000_000.0  # 10 Mbit/s Ethernet
        assert config.repair_delay == 0.1  # "repaired in 0.1s"

    def test_subscribers_per_pattern_formula(self):
        assert SimulationConfig().subscribers_per_pattern == pytest.approx(
            2.857, abs=0.001
        )


class TestValidation:
    def test_replace_produces_new_config(self):
        base = SimulationConfig()
        variant = base.replace(error_rate=0.05, algorithm="push")
        assert variant.error_rate == 0.05
        assert variant.algorithm == "push"
        assert base.error_rate == 0.1

    @pytest.mark.parametrize(
        "field,value",
        [
            ("n_dispatchers", 0),
            ("pi_max", -1),
            ("pi_max", 71),
            ("publish_rate", 0.0),
            ("error_rate", 1.5),
            ("buffer_size", -1),
            ("gossip_interval", 0.0),
            ("sim_time", 0.0),
            ("reconfiguration_interval", 0.0),
        ],
    )
    def test_invalid_values_rejected(self, field, value):
        with pytest.raises(ValueError):
            SimulationConfig(**{field: value})

    def test_measurement_window_validated(self):
        with pytest.raises(ValueError):
            SimulationConfig(sim_time=2.0, measure_start=1.9, measure_end=1.5)
        with pytest.raises(ValueError):
            SimulationConfig(sim_time=2.0, measure_start=0.5, measure_end=3.0)

    def test_effective_measure_end_default(self):
        config = SimulationConfig(sim_time=10.0)
        assert config.effective_measure_end == pytest.approx(8.5)
        explicit = SimulationConfig(sim_time=10.0, measure_end=6.0)
        assert explicit.effective_measure_end == 6.0

    def test_gossip_rng_resolved_from_system_size(self, monkeypatch):
        small = SimulationConfig(n_dispatchers=100)
        assert small.effective_gossip_rng == "mt"
        large = small.replace(n_dispatchers=5000)
        assert large.effective_gossip_rng == "compact"
        monkeypatch.setattr(config_module, "COMPACT_RNG_MIN_NODES", 100)
        assert small.effective_gossip_rng == "compact"
        assert small.effective_cache_layout == "classic"


class TestDerivedQuantities:
    def test_match_probability_bounds(self):
        config = SimulationConfig()
        p = config.match_probability()
        # pi_max=2, events with 1..3 patterns of 70: roughly 2*k/70 averaged.
        assert 0.03 < p < 0.09

    def test_match_probability_zero_subscriptions(self):
        assert SimulationConfig(pi_max=0).match_probability() == 0.0

    def test_buffer_for_persistence_matches_paper_band(self):
        # The paper: beta in [500, 4000] persists events for 1.3..9.2 s at
        # the default load.  Our estimate should land in the same decade.
        config = SimulationConfig()
        seconds_500 = 500 / config.estimated_cache_fill_rate()
        seconds_4000 = 4000 / config.estimated_cache_fill_rate()
        assert 0.8 < seconds_500 < 2.5
        assert 6.0 < seconds_4000 < 14.0

    def test_buffer_for_persistence_roundtrip(self):
        config = SimulationConfig()
        beta = config.buffer_for_persistence(4.0)
        assert config.replace(buffer_size=beta).estimated_persistence() == pytest.approx(
            4.0, rel=0.01
        )

    def test_layer_config_conversions(self):
        config = SimulationConfig(error_rate=0.07, gossip_interval=0.02)
        assert config.network_config().error_rate == 0.07
        assert config.recovery_config().gossip_interval == 0.02

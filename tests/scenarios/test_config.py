"""Tests for SimulationConfig -- including the paper's Figure 2 defaults."""

from __future__ import annotations

import pytest

import repro.scenarios.config as config_module
from repro.scenarios.config import SimulationConfig
from repro.scenarios.serialize import config_from_dict, config_to_dict
from repro.workload.publishers import MAX_EVENT_PATTERNS


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
        assert MAX_EVENT_PATTERNS == 3  # footnote 5
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

    @pytest.mark.parametrize(
        "field,value",
        [
            ("oob_error_rate", 2.0),
            ("oob_error_rate", -0.5),
            ("p_forward", 1.5),
            ("digest_limit", 0),
        ],
    )
    def test_bad_values_rejected_at_construction_and_decoding(self, field, value):
        with pytest.raises(ValueError, match=field):
            SimulationConfig(**{field: value})
        encoded = config_to_dict(SimulationConfig())
        encoded[field] = value
        with pytest.raises(ValueError, match=field):
            config_from_dict(encoded)

    def test_measurement_window_validated(self):
        with pytest.raises(ValueError):
            SimulationConfig(sim_time=2.0, measure_start=1.9, measure_end=1.5)
        with pytest.raises(ValueError):
            SimulationConfig(sim_time=2.0, measure_start=0.5, measure_end=3.0)

    def test_empty_default_window_rejected(self):
        # The default window [1.0, sim_time - 1.5) is empty at 2 s: the
        # run would report a delivery rate over zero events.
        with pytest.raises(ValueError, match="measurement window"):
            SimulationConfig(sim_time=2.0)

    def test_effective_measure_end_default(self):
        config = SimulationConfig(sim_time=10.0)
        assert config.effective_measure_end == pytest.approx(8.5)
        explicit = SimulationConfig(sim_time=10.0, measure_end=6.0)
        assert explicit.effective_measure_end == 6.0

    def test_gossip_rng_resolved_from_system_size(self, monkeypatch):
        small = SimulationConfig(n_dispatchers=100)
        assert not small.compact_state
        large = small.replace(n_dispatchers=5000)
        assert large.compact_state
        assert large.replace(cache_policy="lru").compact_state
        monkeypatch.setattr(config_module, "COMPACT_STATE_MIN_NODES", 100)
        assert small.compact_state


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

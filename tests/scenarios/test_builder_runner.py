"""Tests for the simulation builder and runner (small, fast scenarios)."""

from __future__ import annotations

import gc

import pytest

import repro.scenarios.builder as builder_module
import repro.scenarios.config as config_module
from repro.scenarios.builder import Simulation
from repro.scenarios.config import SimulationConfig
from repro.scenarios.runner import run_many, run_scenario

FAST = dict(
    n_dispatchers=12,
    n_patterns=10,
    publish_rate=10.0,
    sim_time=3.0,
    measure_start=0.3,
    measure_end=2.0,
    buffer_size=100,
)


class TestBuilder:
    def test_unknown_algorithm_rejected(self):
        with pytest.raises(KeyError):
            Simulation(SimulationConfig(algorithm="wishful", **FAST))

    def test_structure_is_wired(self):
        simulation = Simulation(SimulationConfig(algorithm="combined-pull", **FAST))
        assert len(simulation.system.dispatchers) == 12
        assert simulation.network.link_count == 11
        assert len(simulation.recoveries) == 12
        assert len(simulation.publishers) == 12
        assert simulation.reconfiguration is None
        # Combined pull needs route recording on event messages.
        assert all(d.routes is not None for d in simulation.system.dispatchers)

    def test_reconfiguration_engine_created_when_requested(self):
        config = SimulationConfig(
            algorithm="none", reconfiguration_interval=0.5, error_rate=0.0, **FAST
        )
        simulation = Simulation(config)
        assert simulation.reconfiguration is not None
        result = simulation.run()
        assert result.reconfigurations >= 4

    def test_subscriptions_follow_pi_max(self):
        simulation = Simulation(SimulationConfig(algorithm="none", pi_max=2, **FAST))
        for node, patterns in simulation.subscription_assignment.items():
            assert len(patterns) == 2


class TestGarbageCollectorState:
    @pytest.fixture(params=[True, False], ids=["gc-enabled", "gc-disabled"])
    def gc_enabled(self, request):
        was_enabled = gc.isenabled()
        (gc.enable if request.param else gc.disable)()
        yield request.param
        (gc.enable if was_enabled else gc.disable)()

    def test_build_and_run_restore_the_callers_state(self, gc_enabled, monkeypatch):
        during_build = []
        build_tree = builder_module.build_tree

        def spy(*args, **kwargs):
            during_build.append(gc.isenabled())
            return build_tree(*args, **kwargs)

        monkeypatch.setattr(builder_module, "build_tree", spy)
        simulation = Simulation(SimulationConfig(algorithm="combined-pull", **FAST))
        assert during_build == [False]
        assert gc.isenabled() is gc_enabled
        during_loop = []
        simulation.sim.schedule(0.1, lambda: during_loop.append(gc.isenabled()))
        simulation.run(until=0.5)
        assert during_loop == [False]
        assert gc.isenabled() is gc_enabled

    def test_failed_build_restores_the_callers_state(self, gc_enabled):
        with pytest.raises(KeyError):
            Simulation(SimulationConfig(algorithm="wishful", **FAST))
        assert gc.isenabled() is gc_enabled
        with pytest.raises(ValueError, match="tree has"):
            Simulation(
                SimulationConfig(algorithm="none", **FAST),
                tree=builder_module.build_tree("path", 5, None),
            )
        assert gc.isenabled() is gc_enabled


class TestRunInvariants:
    def test_reliable_network_delivers_everything(self):
        config = SimulationConfig(algorithm="none", error_rate=0.0, **FAST)
        result = run_scenario(config)
        assert result.delivery_rate == 1.0
        assert result.delivery.recovered == 0

    def test_reliable_network_perfect_for_every_algorithm(self):
        for algorithm in ("push", "combined-pull", "random-pull"):
            config = SimulationConfig(algorithm=algorithm, error_rate=0.0, **FAST)
            result = run_scenario(config)
            assert result.delivery_rate == 1.0, algorithm
            assert result.unexpected_deliveries == 0
            assert result.duplicate_deliveries == 0

    def test_recovery_beats_no_recovery_on_lossy_network(self):
        base = SimulationConfig(algorithm="none", error_rate=0.15, seed=11, **FAST)
        none_result = run_scenario(base)
        pull_result = run_scenario(base.replace(algorithm="combined-pull"))
        assert pull_result.delivery_rate > none_result.delivery_rate + 0.05
        # Same seed, same streams: the workload is identical.
        assert pull_result.events_published == none_result.events_published

    def test_no_sanity_violations_under_loss(self):
        config = SimulationConfig(algorithm="push", error_rate=0.2, **FAST)
        result = run_scenario(config)
        assert result.unexpected_deliveries == 0
        assert result.duplicate_deliveries == 0

    def test_determinism_same_seed_same_result(self):
        config = SimulationConfig(algorithm="combined-pull", error_rate=0.1, **FAST)
        a = run_scenario(config)
        b = run_scenario(config)
        assert a.delivery_rate == b.delivery_rate
        assert a.messages == b.messages
        assert a.sim_events_processed == b.sim_events_processed

    def test_determinism_with_compact_gossip_rng(self, monkeypatch):
        # The splitmix64 gossip streams must be as replayable as the
        # Mersenne Twister ones, and still recover losses.
        monkeypatch.setattr(config_module, "COMPACT_STATE_MIN_NODES", 1)
        config = SimulationConfig(
            algorithm="combined-pull",
            error_rate=0.15,
            seed=11,
            **FAST,
        )
        assert config.compact_state
        a = run_scenario(config)
        b = run_scenario(config)
        assert a.signature()[1:] == b.signature()[1:]
        none_rate = run_scenario(
            config.replace(algorithm="none")
        ).delivery_rate
        assert a.delivery_rate > none_rate + 0.05

    def test_different_seeds_differ(self):
        config = SimulationConfig(algorithm="none", error_rate=0.1, **FAST)
        a = run_scenario(config)
        b = run_scenario(config.replace(seed=43))
        assert a.messages != b.messages

    def test_baseline_rate_unaffected_by_algorithm_choice(self):
        # Loss draws come from a dedicated stream: which recovery algorithm
        # runs must not change which event transmissions are lost...
        # but gossip shares the loss stream, so we only require closeness.
        base = SimulationConfig(error_rate=0.15, seed=4, **FAST)
        none_rate = run_scenario(base.replace(algorithm="none")).baseline_rate
        push_rate = run_scenario(base.replace(algorithm="push")).baseline_rate
        assert push_rate == pytest.approx(none_rate, abs=0.06)

    def test_result_summary_row(self):
        config = SimulationConfig(algorithm="none", **FAST)
        row = run_scenario(config).summary_row()
        assert row["algorithm"] == "none"
        assert 0.0 <= row["delivery_rate"] <= 1.0


class TestRunMany:
    def test_labels_map_to_results(self):
        base = SimulationConfig(algorithm="none", error_rate=0.0, **FAST)
        results = run_many(
            [base, base.replace(algorithm="push")], labels=["none", "push"]
        )
        assert set(results) == {"none", "push"}

    def test_label_count_mismatch_rejected(self):
        base = SimulationConfig(algorithm="none", **FAST)
        with pytest.raises(ValueError):
            run_many([base], labels=["a", "b"])

    def test_default_labels(self):
        base = SimulationConfig(algorithm="none", error_rate=0.0, **FAST)
        results = run_many([base])
        assert list(results) == ["run-0"]

"""Tests for protocol-based route repair (vs. the oracle)."""

from __future__ import annotations

import pytest

from repro.pubsub.pattern import PatternSpace
from repro.scenarios.config import SimulationConfig
from repro.scenarios.runner import run_scenario
from repro.sim.engine import Simulator
from repro.topology.generator import path_tree
from tests.conftest import build_system
from tests.pubsub.test_protocol_vs_oracle import tables_snapshot


class TestRepairViaProtocol:
    def test_converges_to_oracle_tables(self):
        sim = Simulator()
        space = PatternSpace(8)
        system = build_system(sim, path_tree(5), space)
        system.apply_subscriptions({0: (1,), 2: (3,), 4: (1, 3)})
        # Change the topology by hand: 0-1-2-3-4 becomes 0-1-2-4, 2-3.
        system.network.remove_link(3, 4)
        system.network.add_link(2, 4)

        reference_sim = Simulator()
        reference = build_system(reference_sim, path_tree(5), space)
        reference.network.remove_link(3, 4)
        reference.network.add_link(2, 4)
        reference.apply_subscriptions({0: (1,), 2: (3,), 4: (1, 3)})

        system.repair_routes_via_protocol()
        sim.run()
        assert tables_snapshot(system) == tables_snapshot(reference)

    def test_routes_are_down_during_the_transient(self):
        sim = Simulator()
        space = PatternSpace(8)
        system = build_system(sim, path_tree(4), space)
        system.apply_subscriptions({0: (), 3: (5,)})
        deliveries = []
        system.set_delivery_callback(
            lambda node, event, recovered, now: deliveries.append(node)
        )
        system.repair_routes_via_protocol()
        # Publish immediately: the SUBSCRIBE from node 3 has not reached
        # node 0 yet, so the event finds no route.
        system.publish(0, (5,))
        sim.run()
        assert deliveries == []
        # After convergence the same publish goes through.
        system.publish(0, (5,))
        sim.run()
        assert deliveries == [3]

    def test_end_to_end_with_reconfiguration(self):
        config = SimulationConfig(
            n_dispatchers=15,
            n_patterns=10,
            publish_rate=15.0,
            error_rate=0.0,
            reconfiguration_interval=0.5,
            route_repair="protocol",
            algorithm="combined-pull",
            sim_time=4.0,
            measure_start=0.5,
            measure_end=2.5,
            buffer_size=300,
        )
        result = run_scenario(config)
        assert result.reconfigurations >= 5
        # Recovery still brings delivery close to 1.0 despite the slower,
        # message-level route reconstruction.
        assert result.delivery_rate > 0.9
        assert result.unexpected_deliveries == 0
        assert result.duplicate_deliveries == 0

    def test_protocol_repair_costs_more_than_oracle(self):
        base = SimulationConfig(
            n_dispatchers=15,
            n_patterns=10,
            publish_rate=15.0,
            error_rate=0.0,
            reconfiguration_interval=0.5,
            algorithm="none",
            sim_time=4.0,
            measure_start=0.5,
            measure_end=2.5,
            buffer_size=300,
        )
        oracle = run_scenario(base)
        protocol = run_scenario(base.replace(route_repair="protocol"))
        # The protocol mode actually sends subscription messages...
        assert protocol.messages["sent_subscription"] > 0
        assert oracle.messages["sent_subscription"] == 0
        # ...and its route-reconstruction transient costs deliveries.
        assert protocol.delivery_rate <= oracle.delivery_rate + 0.001

    def test_invalid_mode_rejected(self):
        with pytest.raises(ValueError):
            SimulationConfig(route_repair="telepathic")

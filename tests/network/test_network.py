"""Tests for the network container and the out-of-band channel."""

from __future__ import annotations

import random

import pytest

from repro.network.message import Message, MessageKind
from repro.network.network import Network, NetworkConfig
from repro.scenarios.builder import Simulation
from repro.scenarios.config import SimulationConfig
from repro.sim.engine import Simulator
from tests.network.test_link import Recorder, event_message


def make_network(sim, n=3, config=None, seed=0):
    network = Network(sim, config or NetworkConfig(error_rate=0.0), random.Random(seed))
    nodes = [Recorder(i, sim) for i in range(n)]
    for node in nodes:
        network.add_node(node)
    return network, nodes


class TestTopologyManagement:
    def test_duplicate_node_rejected(self):
        sim = Simulator()
        network, nodes = make_network(sim)
        with pytest.raises(ValueError):
            network.add_node(Recorder(0, sim))

    def test_neighbors_sorted_and_live(self):
        sim = Simulator()
        network, nodes = make_network(sim, n=4)
        network.add_link(2, 0)
        network.add_link(0, 3)
        network.add_link(0, 1)
        assert network.neighbors(0) == [1, 2, 3]
        network.remove_link(0, 2)
        assert network.neighbors(0) == [1, 3]

    def test_edges_deterministic(self):
        sim = Simulator()
        network, nodes = make_network(sim, n=4)
        network.add_link(3, 1)
        network.add_link(0, 2)
        assert network.edges() == [(0, 2), (1, 3)]

    def test_degree(self):
        sim = Simulator()
        network, nodes = make_network(sim, n=3)
        network.add_link(0, 1)
        network.add_link(0, 2)
        assert network.degree(0) == 2
        assert network.degree(1) == 1


class TestOutOfBand:
    def test_oob_delivers_with_latency(self):
        sim = Simulator()
        config = NetworkConfig(error_rate=0.0, oob_latency=0.005)
        network, nodes = make_network(sim, config=config)
        # No link needed: the channel is out of band w.r.t. the tree.
        network.send_oob(0, 2, Message(MessageKind.OOB_EVENT, "e", 0))
        sim.run()
        assert nodes[2].received_oob[0][0] == pytest.approx(0.005)
        assert nodes[2].received_oob[0][2] == 0

    def test_oob_loss(self):
        sim = Simulator()
        config = NetworkConfig(error_rate=0.0, oob_error_rate=1.0)
        network, nodes = make_network(sim, config=config)
        network.send_oob(0, 1, Message(MessageKind.OOB_EVENT, "e", 0))
        sim.run()
        assert nodes[1].received_oob == []

    def test_oob_unknown_destination_is_counted_drop(self):
        """UDP to a vanished host just disappears: counted drop (send +
        drop + down_drops), never a KeyError."""
        sim = Simulator()
        network, nodes = make_network(sim)
        assert network.send_oob(0, 99, Message(MessageKind.OOB_EVENT, "e", 0)) is False
        sim.run()
        assert network.sent_tally[MessageKind.OOB_EVENT] == 1
        assert network.dropped_tally[MessageKind.OOB_EVENT] == 1
        assert network.oob_by_node[0] == 1
        assert network.down_drops == 1

    def test_oob_unknown_destination_in_a_fault_free_scenario(self):
        """A network built by a scenario without a fault plan has the same
        crash-aware out-of-band path as any other."""
        simulation = Simulation(SimulationConfig(n_dispatchers=4, seed=1))
        network = simulation.network
        message = Message(MessageKind.OOB_REQUEST, "r", 0)
        assert network.send_oob(0, 99, message) is False
        simulation.sim.run()
        assert network.sent_tally[MessageKind.OOB_REQUEST] == 1
        assert network.dropped_tally[MessageKind.OOB_REQUEST] == 1
        assert network.down_drops == 1

    def test_oob_statistical_loss(self):
        sim = Simulator()
        config = NetworkConfig(error_rate=0.0, oob_error_rate=0.25)
        network, nodes = make_network(sim, config=config, seed=5)
        for _ in range(2000):
            network.send_oob(0, 1, Message(MessageKind.OOB_EVENT, "e", 0))
        sim.run()
        rate = 1 - len(nodes[1].received_oob) / 2000
        assert rate == pytest.approx(0.25, abs=0.04)


class TestCrashedNodeDelivery:
    """In-flight traffic to a node that crashes before delivery becomes a
    counted drop (``down_drops``) -- never an exception, never a receive."""

    def test_link_message_in_flight_when_node_crashes(self):
        sim = Simulator()
        network, nodes = make_network(sim)
        network.add_link(0, 1)
        assert network.send(0, 1, event_message()) is True
        network.set_node_down(1, True)  # crash while the frame is on the wire
        sim.run()
        assert nodes[1].received == []
        assert network.dropped_tally[MessageKind.EVENT] == 1
        assert network.delivered_tally[MessageKind.EVENT] == 0
        assert network.down_drops == 1

    def test_oob_message_in_flight_when_node_crashes(self):
        sim = Simulator()
        network, nodes = make_network(sim)
        assert network.send_oob(0, 2, Message(MessageKind.OOB_EVENT, "e", 0)) is True
        network.set_node_down(2, True)
        sim.run()
        assert nodes[2].received_oob == []
        assert network.dropped_tally[MessageKind.OOB_EVENT] == 1
        assert network.down_drops == 1

    def test_restart_reenables_delivery(self):
        sim = Simulator()
        network, nodes = make_network(sim)
        network.add_link(0, 1)
        network.set_node_down(1, True)
        network.send(0, 1, event_message())
        sim.run()
        assert nodes[1].received == []
        network.set_node_down(1, False)
        network.send(0, 1, event_message())
        sim.run()
        assert len(nodes[1].received) == 1
        assert network.down_drops == 1  # only the crash-epoch frame

    def test_down_state_is_derived_from_receivers(self):
        sim = Simulator()
        network, nodes = make_network(sim)
        assert network.down_nodes() == set()
        network.set_node_down(2, True)
        assert network.is_down(2) and not network.is_down(1)
        assert network.down_nodes() == {2}
        network.set_node_down(2, False)
        assert not network.is_down(2)
        assert network.down_nodes() == set()
        assert not network.is_down(99)

    def test_set_node_down_rejects_unknown_node(self):
        sim = Simulator()
        network, nodes = make_network(sim)
        with pytest.raises(KeyError):
            network.set_node_down(99, True)


class TestTrafficObserver:
    """The network's own traffic account: per-kind tallies, and gossip and
    out-of-band sends per node."""

    def test_counters_observe_sends_drops_deliveries(self):
        sim = Simulator()
        network, nodes = make_network(sim)
        network.add_link(0, 1)
        network.send(0, 1, event_message())
        network.send(0, 1, Message(MessageKind.GOSSIP, "g", 0))
        network.send_oob(0, 2, Message(MessageKind.OOB_EVENT, "e", 0))
        sim.run()
        assert network.sent_tally[MessageKind.EVENT] == 1
        assert network.sent_tally[MessageKind.GOSSIP] == 1
        assert network.sent_tally[MessageKind.OOB_EVENT] == 1
        assert network.delivered_tally[MessageKind.EVENT] == 1
        assert network.delivered_tally[MessageKind.GOSSIP] == 1
        assert network.delivered_tally[MessageKind.OOB_EVENT] == 1
        assert network.gossip_by_node[0] == 1
        assert network.oob_by_node[0] == 1

    def test_counters_observe_drops(self):
        sim = Simulator()
        config = NetworkConfig(error_rate=1.0)
        network = Network(sim, config, random.Random(0))
        network.add_node(Recorder(0, sim))
        network.add_node(Recorder(1, sim))
        network.add_link(0, 1)
        for _ in range(10):
            network.send(0, 1, event_message())
        sim.run()
        assert network.sent_tally[MessageKind.EVENT] == 10
        assert network.dropped_tally[MessageKind.EVENT] == 10
        assert network.delivered_tally[MessageKind.EVENT] == 0

    def test_null_observer_by_default(self):
        """Nothing needs to be attached for the network to count."""
        sim = Simulator()
        network, nodes = make_network(sim)
        network.add_link(0, 1)
        network.send(0, 1, event_message())
        sim.run()
        assert len(nodes[1].received) == 1
        assert network.sent_tally[MessageKind.EVENT] == 1
        assert network.delivered_tally[MessageKind.EVENT] == 1

    def test_node_columns_grow_with_sparse_ids(self):
        """Node ids need not be dense or added in order: the per-node
        columns grow to cover the largest id."""
        sim = Simulator()
        network = Network(sim, NetworkConfig(error_rate=0.0), random.Random(0))
        network.add_node(Recorder(7, sim))
        network.add_node(Recorder(2, sim))
        network.add_node(Recorder(40, sim))
        network.add_link(40, 7)
        network.send(40, 7, Message(MessageKind.GOSSIP, "g", 40))
        network.send_oob(2, 40, Message(MessageKind.OOB_REQUEST, "r", 2))
        assert network.gossip_by_node[40] == 1
        assert network.oob_by_node[2] == 1
        assert sum(network.gossip_by_node) + sum(network.oob_by_node) == 2

"""Tests for the Section IV-E figures read off the network's tallies."""

from __future__ import annotations

import random

import pytest

from repro.metrics.counters import MessageCounters
from repro.network.message import Message, MessageKind
from repro.network.network import Network, NetworkConfig
from repro.sim.engine import Simulator
from tests.network.test_link import Recorder

_OOB_KINDS = (MessageKind.OOB_REQUEST, MessageKind.OOB_EVENT)


def make_network(node_count):
    """A lossless star around node 0 with one stub node per id."""
    sim = Simulator()
    network = Network(sim, NetworkConfig(error_rate=0.0), random.Random(0))
    for node_id in range(node_count):
        network.add_node(Recorder(node_id, sim))
    for node_id in range(1, node_count):
        network.add_link(0, node_id)
    return sim, network


def send(network, kind, node, times=1):
    """``times`` messages of ``kind`` from ``node`` to a star neighbour,
    out of band for the out-of-band kinds."""
    neighbor = 1 if node == 0 else 0
    for _ in range(times):
        message = Message(kind, None, node)
        if kind in _OOB_KINDS:
            network.send_oob(node, neighbor, message)
        else:
            network.send(node, neighbor, message)


class TestMessageCounters:
    def test_per_kind_accounting(self):
        sim, network = make_network(3)
        send(network, MessageKind.EVENT, 0)
        send(network, MessageKind.EVENT, 1)
        send(network, MessageKind.GOSSIP, 2)
        # No link between 1 and 2: a counted send and drop.
        network.send(1, 2, Message(MessageKind.EVENT, None, 1))
        sim.run()
        snapshot = MessageCounters(network).snapshot()
        assert snapshot["sent_event"] == 3
        assert snapshot["sent_gossip"] == 1
        assert snapshot["dropped_event"] == 1
        assert snapshot["delivered_event"] == 2
        assert snapshot["delivered_gossip"] == 1

    def test_per_node_tallies(self):
        sim, network = make_network(3)
        send(network, MessageKind.GOSSIP, 1, times=4)
        send(network, MessageKind.EVENT, 2)
        assert list(network.gossip_by_node[:3]) == [0, 4, 0]
        assert list(network.oob_by_node[:3]) == [0, 0, 0]
        counters = MessageCounters(network)
        assert counters.gossip_per_dispatcher() == pytest.approx(4 / 3)

    def test_ratio(self):
        sim, network = make_network(2)
        counters = MessageCounters(network)
        assert counters.gossip_event_ratio() == 0.0
        send(network, MessageKind.EVENT, 0, times=10)
        send(network, MessageKind.GOSSIP, 0, times=3)
        assert counters.gossip_event_ratio() == pytest.approx(0.3)

    def test_oob_messages_pool_requests_and_retransmissions(self):
        sim, network = make_network(2)
        send(network, MessageKind.OOB_REQUEST, 0)
        send(network, MessageKind.OOB_EVENT, 1, times=2)
        assert MessageCounters(network).oob_messages == 3

    def test_snapshot_contains_all_kinds(self):
        sim, network = make_network(2)
        send(network, MessageKind.CONTROL, 0)
        snapshot = MessageCounters(network).snapshot()
        assert snapshot["sent_control"] == 1
        for kind in MessageKind:
            assert f"sent_{kind.name.lower()}" in snapshot
            assert f"dropped_{kind.name.lower()}" in snapshot
            assert f"delivered_{kind.name.lower()}" in snapshot

    def test_invalid_node_count(self):
        sim = Simulator()
        network = Network(sim, NetworkConfig(), random.Random(0))
        with pytest.raises(ValueError):
            MessageCounters(network)

"""Tests for the per-node out-of-band tallies and the load-skew metric."""

from __future__ import annotations

import pytest

from repro.metrics.counters import MessageCounters
from repro.network.message import MessageKind
from tests.metrics.test_counters import make_network, send


class TestOobByNode:
    def test_requests_and_retransmissions_tallied(self):
        sim, network = make_network(3)
        send(network, MessageKind.OOB_REQUEST, 0)
        send(network, MessageKind.OOB_EVENT, 0)
        send(network, MessageKind.OOB_EVENT, 2)
        assert list(network.oob_by_node[:3]) == [2, 0, 1]

    def test_event_and_gossip_not_in_oob_tally(self):
        sim, network = make_network(2)
        send(network, MessageKind.EVENT, 0)
        send(network, MessageKind.GOSSIP, 0)
        assert list(network.oob_by_node[:2]) == [0, 0]


class TestLoadSkew:
    def test_no_traffic_is_zero(self):
        sim, network = make_network(4)
        assert MessageCounters(network).recovery_load_skew() == 0.0

    def test_flat_profile_is_one(self):
        sim, network = make_network(4)
        for node in range(4):
            send(network, MessageKind.GOSSIP, node)
        assert MessageCounters(network).recovery_load_skew() == pytest.approx(1.0)

    def test_concentrated_profile(self):
        sim, network = make_network(4)
        send(network, MessageKind.OOB_EVENT, 0, times=8)
        # mean = 2, max = 8 -> skew 4.
        assert MessageCounters(network).recovery_load_skew() == pytest.approx(4.0)

    def test_mixed_gossip_and_oob(self):
        sim, network = make_network(2)
        send(network, MessageKind.GOSSIP, 0)
        send(network, MessageKind.OOB_REQUEST, 1)
        assert MessageCounters(network).recovery_load_skew() == pytest.approx(1.0)

"""Tests for the shared recovery machinery (timers, stats, OOB serving,
digest limits, forwarding primitives)."""

from __future__ import annotations

import pytest

from repro.recovery.base import GossipStats, RecoveryConfig
from repro.recovery.digest import PushGossip
from repro.topology.generator import path_tree, star_tree
from tests.recovery.harness import RecoveryHarness


class TestRecoveryConfig:
    @pytest.mark.parametrize(
        "field,value",
        [
            ("gossip_interval", 0.0),
            ("p_forward", 1.5),
            ("p_forward", -0.1),
            ("p_source", 2.0),
            ("random_hop_limit", 0),
            ("digest_limit", 0),
        ],
    )
    def test_invalid_values_rejected(self, field, value):
        with pytest.raises(ValueError):
            RecoveryConfig(**{field: value})

    def test_defaults_are_sane(self):
        config = RecoveryConfig()
        assert config.gossip_interval == 0.03
        assert 0.0 <= config.p_forward <= 1.0


class TestGossipStats:
    def test_merge_sums_fields(self):
        a = GossipStats(rounds=2, gossip_sent=5, requests_sent=1)
        b = GossipStats(rounds=3, gossip_sent=7, retransmissions_sent=4)
        a.merge(b)
        assert a.rounds == 5
        assert a.gossip_sent == 12
        assert a.requests_sent == 1
        assert a.retransmissions_sent == 4


class TestTimerBehaviour:
    def test_rounds_counted_per_dispatcher(self):
        config = RecoveryConfig(gossip_interval=0.1)
        harness = RecoveryHarness(
            path_tree(3), "push", {0: (1,), 1: (), 2: (1,)}, config=config
        )
        harness.run_for(1.0)
        for recovery in harness.recoveries:
            # Random phase in [0, T): about 10-11 rounds in one second.
            assert 9 <= recovery.stats.rounds <= 12

    def test_stop_halts_rounds(self):
        config = RecoveryConfig(gossip_interval=0.1)
        harness = RecoveryHarness(
            path_tree(2), "push", {0: (1,), 1: (1,)}, config=config
        )
        harness.run_for(0.5)
        counts = [r.stats.rounds for r in harness.recoveries]
        for recovery in harness.recoveries:
            recovery.stop()
        harness.run_for(1.0)
        assert [r.stats.rounds for r in harness.recoveries] == counts


class TestOobServing:
    def test_request_served_from_cache(self):
        harness = RecoveryHarness(
            path_tree(2), "push", {0: (1,), 1: (1,)}, start=False
        )
        event = harness.publish(0, (1,))
        harness.run_for(0.05)
        # Node 1 already received it; pretend it lost it and asks node 0.
        dispatcher = harness.system.dispatchers[1]
        dispatcher.seen[event.row + dispatcher.seen_col] &= ~dispatcher.seen_bit
        harness.deliveries.clear()
        harness.recovery(1).dispatcher.send_oob_request(0, (event.event_id,))
        harness.run_for(0.05)
        assert (1, event.event_id, True) in harness.deliveries
        assert harness.recovery(0).stats.requests_served == 1
        assert harness.recovery(0).stats.retransmissions_sent == 1

    def test_request_for_evicted_event_unmet(self):
        harness = RecoveryHarness(
            path_tree(2), "push", {0: (1,), 1: (1,)}, buffer_size=1, start=False
        )
        old = harness.publish(0, (1,))
        harness.publish(0, (1,))  # evicts `old` from node 0's cache
        harness.run_for(0.05)
        harness.recovery(1).dispatcher.send_oob_request(0, (old.event_id,))
        harness.run_for(0.05)
        assert harness.recovery(0).stats.retransmissions_sent == 0


class TestDigestLimit:
    def test_push_digest_respects_limit_and_keeps_newest(self):
        config = RecoveryConfig(gossip_interval=0.5, p_forward=1.0, digest_limit=3)
        harness = RecoveryHarness(
            path_tree(2), "push", {0: (1,), 1: (1,)}, config=config, start=False
        )
        events = [harness.publish(0, (1,)) for _ in range(6)]
        harness.run_for(0.01)
        captured = []
        original = harness.system.dispatchers[0].send_gossip

        def spy(neighbor, payload):
            captured.append(payload)
            original(neighbor, payload)

        harness.system.dispatchers[0].send_gossip = spy
        harness.recovery(0).gossip_round()
        pushes = [p for p in captured if isinstance(p, PushGossip)]
        assert pushes
        advertised = pushes[0].events
        assert len(advertised) == 3
        assert list(advertised) == events[-3:]


class TestForwardingPrimitives:
    def test_forward_along_pattern_respects_p_forward_zero(self):
        config = RecoveryConfig(gossip_interval=0.05, p_forward=0.0)
        harness = RecoveryHarness(
            star_tree(4), "push", {1: (1,), 2: (1,), 3: (1,)}, config=config
        )
        harness.run_for(1.0)
        assert sum(r.stats.gossip_sent for r in harness.recoveries) == 0

    def test_random_walk_sends_exactly_one_copy(self):
        config = RecoveryConfig(gossip_interval=0.05, random_hop_limit=1)
        harness = RecoveryHarness(
            star_tree(4), "random-pull", {1: (1,), 2: (), 3: (1,)}, config=config
        )
        harness.publish_lossy(1, (1,), dead_links=[(0, 3)])
        harness.publish(1, (1,))
        harness.run_for(0.2)
        rounds_with_loss = [
            r for r in harness.recoveries if r.stats.gossip_sent > 0
        ]
        for recovery in rounds_with_loss:
            emitted_rounds = (
                recovery.stats.rounds - recovery.stats.rounds_skipped
            )
            # hop limit 1: one copy per emitting round, never forwarded.
            assert recovery.stats.gossip_sent <= emitted_rounds

"""Fine-grained behaviour of the pull digests: shrinking, scoping, and
round bookkeeping."""

from __future__ import annotations

from repro.recovery.base import RecoveryConfig
from repro.recovery.digest import PublisherPullGossip, SubscriberPullGossip
from repro.recovery.loss_detector import LossDetector
from repro.topology.generator import path_tree
from tests.recovery.harness import RecoveryHarness

CONFIG = RecoveryConfig(gossip_interval=0.05, p_forward=1.0)


def spy_on_gossip(harness, node_id, captured):
    dispatcher = harness.system.dispatchers[node_id]
    original = dispatcher.send_gossip

    def spy(neighbor, payload, size_bits=None):
        captured.append((neighbor, payload))
        original(neighbor, payload)

    dispatcher.send_gossip = spy


class TestDigestShrinking:
    def test_served_entries_stripped_before_forwarding(self):
        # 0(sub p1) - 1(sub p2) - 2 - 3(sub p1): node 3 misses two events,
        # one of which node 1 holds (it matched p2 too).  When node 1
        # forwards the digest toward node 0 it must contain only the
        # still-unmet entry.
        harness = RecoveryHarness(
            path_tree(4),
            "subscriber-pull",
            {0: (1,), 1: (2,), 2: (), 3: (1,)},
            config=CONFIG,
            start=False,
        )
        both = harness.publish_lossy(0, (1, 2), dead_links=[(2, 3)])
        only_p1 = harness.publish_lossy(0, (1,), dead_links=[(2, 3)])
        harness.publish(0, (1,))  # reveals both gaps at node 3
        harness.run_for(0.05)
        captured = []
        spy_on_gossip(harness, 1, captured)
        for recovery in harness.recoveries:
            recovery.start()
        harness.run_for(1.0)
        forwarded = [
            payload
            for _, payload in captured
            if isinstance(payload, SubscriberPullGossip)
        ]
        assert forwarded, "node 1 forwarded nothing"
        first = forwarded[0]
        entry_seqs = {entry[2] for entry in first.entries}
        # The event node 1 cached (seq 1 on pattern 1) was served and
        # stripped; the p1-only event (seq 2) travels on.
        assert both.pattern_seqs[1] not in entry_seqs
        assert only_p1.pattern_seqs[1] in entry_seqs

    def test_publisher_digest_scoped_to_one_source(self):
        harness = RecoveryHarness(
            path_tree(3),
            "publisher-pull",
            {0: (), 1: (), 2: (1,)},
            config=CONFIG,
            start=False,
        )
        # Two different publishers lose events toward node 2.
        harness.publish_lossy(0, (1,), dead_links=[(1, 2)])
        harness.publish(0, (1,))
        harness.publish_lossy(1, (1,), dead_links=[(1, 2)])
        harness.publish(1, (1,))
        harness.run_for(0.05)
        captured = []
        spy_on_gossip(harness, 2, captured)
        harness.recovery(2).start()
        harness.run_for(0.3)
        for _, payload in captured:
            if isinstance(payload, PublisherPullGossip):
                sources = {entry[0] for entry in payload.entries}
                assert sources == {payload.source}

    def test_subscriber_round_uses_only_local_patterns(self):
        # Node 1 forwards pattern 1 for others but subscribes only to 2:
        # its own gossip rounds must never be labelled with pattern 1.
        harness = RecoveryHarness(
            path_tree(3),
            "subscriber-pull",
            {0: (1,), 1: (2,), 2: (1,)},
            config=CONFIG,
            start=False,
        )
        captured = []
        spy_on_gossip(harness, 1, captured)
        harness.publish_lossy(0, (1,), dead_links=[(1, 2)])
        harness.publish(0, (1,))
        harness.recovery(1).start()
        harness.run_for(0.5)
        own = [
            payload
            for _, payload in captured
            if isinstance(payload, SubscriberPullGossip) and payload.gossiper == 1
        ]
        assert all(p.pattern == 2 for p in own)
        # And since nothing on pattern 2 was lost, node 1 sent none at all.
        assert own == []


class _CountingRandom:
    """Wraps a random source and records the name of every draw."""

    def __init__(self, inner):
        self._inner = inner
        self.calls = []

    def __getattr__(self, name):
        method = getattr(self._inner, name)

        def counted(*args, **kwargs):
            self.calls.append(name)
            return method(*args, **kwargs)

        return counted


class TestCombinedPullIdleRound:
    def _harness(self):
        return RecoveryHarness(
            path_tree(3),
            "combined-pull",
            {0: (1,), 1: (), 2: (1,)},
            config=CONFIG,
            start=False,
        )

    def _round(self, harness, node_id):
        recovery = harness.recovery(node_id)
        rng = recovery.rng = _CountingRandom(recovery.rng)
        captured = []
        spy_on_gossip(harness, node_id, captured)
        skipped = recovery.stats.rounds_skipped
        recovery.gossip_round()
        return rng.calls, captured, recovery.stats.rounds_skipped - skipped

    def test_empty_lost_buffer_draws_once_and_sends_nothing(self, monkeypatch):
        harness = self._harness()
        harness.publish(0, (1,))
        harness.run_for(0.05)
        assert not harness.recovery(2).detector.has_losses()

        def unreachable(self, now=None):
            raise AssertionError("an idle round scanned the Lost buffer")

        # The idle exit returns before either style lists its candidates.
        monkeypatch.setattr(LossDetector, "patterns_with_losses", unreachable)
        monkeypatch.setattr(LossDetector, "sources_with_losses", unreachable)
        calls, captured, skipped = self._round(harness, 2)
        assert calls == ["random"]
        assert captured == []
        assert skipped == 1

    def test_pending_loss_takes_the_normal_path(self):
        harness = self._harness()
        harness.publish_lossy(0, (1,), dead_links=[(1, 2)])
        harness.publish(0, (1,))  # reveals the gap at node 2
        harness.run_for(0.05)
        assert harness.recovery(2).detector.has_losses()
        calls, captured, skipped = self._round(harness, 2)
        assert calls[:2] == ["random", "randrange"]
        assert len(captured) == 1
        assert skipped == 0

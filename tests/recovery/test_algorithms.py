"""Behavioural tests for each recovery algorithm on small deterministic
topologies with injected losses."""

from __future__ import annotations

import pytest

from repro.recovery import ALGORITHMS, PAPER_ALGORITHMS, create_recovery
from repro.recovery.base import RecoveryConfig
from repro.topology.generator import path_tree, star_tree
from tests.recovery.harness import RecoveryHarness

#: Generous horizon: every algorithm gossips every 0.05 s, so a second is
#: twenty rounds -- plenty on a three-node overlay.
HORIZON = 2.0

#: Deterministic forwarding for the tiny-topology tests.
CONFIG = RecoveryConfig(gossip_interval=0.05, p_forward=1.0)


class TestNoRecovery:
    def test_lost_events_stay_lost(self):
        harness = RecoveryHarness(
            path_tree(3), "none", {0: (1,), 1: (), 2: (1,)}, config=CONFIG
        )
        event = harness.publish_lossy(0, (1,), dead_links=[(1, 2)])
        harness.run_for(HORIZON)
        assert event.event_id not in harness.delivered_to(2)
        assert harness.recovery(2).stats.rounds == 0


class TestPush:
    def test_publisher_digest_recovers_subscriber(self):
        # 0 and 2 subscribe pattern 1; the publisher 0 caches its own event
        # and pushes digests toward subscribers; 2 requests and recovers.
        harness = RecoveryHarness(
            path_tree(3), "push", {0: (1,), 1: (), 2: (1,)}, config=CONFIG
        )
        event = harness.publish_lossy(0, (1,), dead_links=[(1, 2)])
        assert event.event_id not in harness.delivered_to(2)
        harness.run_for(HORIZON)
        assert event.event_id in harness.recovered_at(2)

    def test_subscriber_digest_recovers_peer(self):
        # Publisher 1 is not subscribed; subscriber 0 received the event
        # and its digests reach subscriber 2, which lost it.
        harness = RecoveryHarness(
            path_tree(3), "push", {0: (1,), 1: (), 2: (1,)}, config=CONFIG
        )
        event = harness.publish_lossy(1, (1,), dead_links=[(1, 2)])
        harness.run_for(HORIZON)
        assert event.event_id in harness.recovered_at(2)

    def test_no_request_when_nothing_missing(self):
        harness = RecoveryHarness(
            path_tree(3), "push", {0: (1,), 1: (), 2: (1,)}, config=CONFIG
        )
        harness.publish(0, (1,))
        harness.run_for(HORIZON)
        assert sum(r.stats.requests_sent for r in harness.recoveries) == 0

    def test_push_gossips_even_with_empty_digest(self):
        harness = RecoveryHarness(
            path_tree(2), "push", {0: (1,), 1: (1,)}, config=CONFIG
        )
        harness.run_for(1.0)
        total = sum(r.stats.gossip_sent for r in harness.recoveries)
        assert total > 0

    def test_recovered_event_not_reforwarded_on_tree(self):
        harness = RecoveryHarness(
            path_tree(4), "push", {0: (1,), 1: (), 2: (1,), 3: ()}, config=CONFIG
        )
        event = harness.publish_lossy(0, (1,), dead_links=[(1, 2)])
        harness.run_for(HORIZON)
        assert event.event_id in harness.recovered_at(2)
        # Node 3 neither subscribes nor should see a tree copy triggered
        # by 2's recovery.
        assert not harness.system.dispatchers[3].cache.contains(event.event_id)


class TestSubscriberPull:
    def test_recovers_from_fellow_subscriber(self):
        harness = RecoveryHarness(
            path_tree(3), "subscriber-pull", {0: (1,), 1: (), 2: (1,)}, config=CONFIG
        )
        lost = harness.publish_lossy(0, (1,), dead_links=[(1, 2)])
        # A later event on the same (source, pattern) stream reveals the gap.
        harness.publish(0, (1,))
        harness.run_for(HORIZON)
        assert lost.event_id in harness.recovered_at(2)

    def test_cannot_recover_without_fellow_subscribers(self):
        # The paper's central observation: a lone subscriber has nobody to
        # pull from (the publisher does not subscribe, so only routing
        # intermediaries could cache, and none subscribe here either).
        harness = RecoveryHarness(
            path_tree(3), "subscriber-pull", {0: (), 1: (), 2: (1,)}, config=CONFIG
        )
        lost = harness.publish_lossy(0, (1,), dead_links=[(1, 2)])
        harness.publish(0, (1,))
        harness.run_for(HORIZON)
        assert lost.event_id not in harness.delivered_to(2)

    def test_skips_rounds_when_nothing_lost(self):
        harness = RecoveryHarness(
            path_tree(3), "subscriber-pull", {0: (1,), 1: (), 2: (1,)}, config=CONFIG
        )
        harness.run_for(1.0)
        total_rounds = sum(r.stats.rounds for r in harness.recoveries)
        skipped = sum(r.stats.rounds_skipped for r in harness.recoveries)
        assert total_rounds == skipped
        assert sum(r.stats.gossip_sent for r in harness.recoveries) == 0

    def test_intermediate_cache_short_circuits(self):
        # 1 subscribes pattern 2, the event matches both 1 and 3's pattern;
        # 3 pulls toward fellow subscriber 0 of pattern 1 and is served by
        # 1's cache on the way (it never subscribed to pattern 1).
        harness = RecoveryHarness(
            path_tree(4),
            "subscriber-pull",
            {0: (1,), 1: (2,), 2: (), 3: (1,)},
            config=CONFIG,
        )
        lost = harness.publish_lossy(0, (1, 2), dead_links=[(2, 3)])
        harness.publish(0, (1,))
        harness.run_for(HORIZON)
        assert lost.event_id in harness.recovered_at(3)
        assert harness.recovery(1).stats.cache_short_circuits >= 1


class TestPublisherPull:
    def test_recovers_from_the_source(self):
        # Lone subscriber: exactly the case subscriber-pull cannot handle.
        harness = RecoveryHarness(
            path_tree(3), "publisher-pull", {0: (), 1: (), 2: (1,)}, config=CONFIG
        )
        lost = harness.publish_lossy(0, (1,), dead_links=[(1, 2)])
        harness.publish(0, (1,))  # reveals the gap and refreshes the route
        harness.run_for(HORIZON)
        assert lost.event_id in harness.recovered_at(2)

    def test_route_intermediary_short_circuits(self):
        harness = RecoveryHarness(
            path_tree(4),
            "publisher-pull",
            {0: (), 1: (2,), 2: (), 3: (1,)},
            config=CONFIG,
        )
        lost = harness.publish_lossy(0, (1, 2), dead_links=[(2, 3)])
        harness.publish(0, (1,))
        harness.run_for(HORIZON)
        assert lost.event_id in harness.recovered_at(3)
        # The source never saw the gossip: node 1 served it first.
        assert harness.recovery(0).stats.gossip_handled == 0

    def test_no_route_no_gossip(self):
        # Loss detected but no event ever received from that source => no
        # route; the round is skipped rather than misrouted.  (Construct by
        # a first event whose seq is already > 1.)
        harness = RecoveryHarness(
            path_tree(2), "publisher-pull", {0: (), 1: (1,)}, config=CONFIG, start=False
        )
        harness.publish_lossy(0, (1,), dead_links=[(0, 1)])
        for recovery in harness.recoveries:
            recovery.start()
        harness.run_for(0.5)
        # Nothing was ever received at node 1: no detection, no gossip.
        assert harness.recovery(1).stats.gossip_sent == 0


class TestCombinedPull:
    def test_recovers_lone_subscriber_case(self):
        harness = RecoveryHarness(
            path_tree(3), "combined-pull", {0: (), 1: (), 2: (1,)}, config=CONFIG
        )
        lost = harness.publish_lossy(0, (1,), dead_links=[(1, 2)])
        harness.publish(0, (1,))
        harness.run_for(HORIZON)
        assert lost.event_id in harness.recovered_at(2)

    def test_recovers_fellow_subscriber_case(self):
        harness = RecoveryHarness(
            path_tree(3), "combined-pull", {0: (1,), 1: (), 2: (1,)}, config=CONFIG
        )
        lost = harness.publish_lossy(0, (1,), dead_links=[(1, 2)])
        harness.publish(0, (1,))
        harness.run_for(HORIZON)
        assert lost.event_id in harness.recovered_at(2)

    def test_p_source_one_is_pure_publisher_pull(self):
        config = RecoveryConfig(gossip_interval=0.05, p_forward=1.0, p_source=1.0)
        harness = RecoveryHarness(
            path_tree(3), "combined-pull", {0: (), 1: (), 2: (1,)}, config=config
        )
        lost = harness.publish_lossy(0, (1,), dead_links=[(1, 2)])
        harness.publish(0, (1,))
        harness.run_for(HORIZON)
        assert lost.event_id in harness.recovered_at(2)


class TestRandomVariants:
    def test_random_pull_recovers_on_small_overlay(self):
        harness = RecoveryHarness(
            star_tree(4), "random-pull", {1: (1,), 2: (), 3: (1,)}, config=CONFIG
        )
        lost = harness.publish_lossy(1, (1,), dead_links=[(0, 3)])
        harness.publish(1, (1,))
        harness.run_for(HORIZON)
        assert lost.event_id in harness.recovered_at(3)

    def test_random_push_recovers_on_small_overlay(self):
        harness = RecoveryHarness(
            path_tree(2), "random-push", {0: (1,), 1: (1,)}, config=CONFIG
        )
        lost = harness.publish_lossy(0, (1,), dead_links=[(0, 1)])
        harness.run_for(HORIZON)
        assert lost.event_id in harness.recovered_at(1)


class TestAdaptivePush:
    def test_interval_grows_when_idle(self):
        config = RecoveryConfig(gossip_interval=0.05, p_forward=1.0)
        harness = RecoveryHarness(
            path_tree(2), "adaptive-push", {0: (1,), 1: (1,)}, config=config
        )
        harness.publish(0, (1,))
        harness.run_for(3.0)
        assert harness.recovery(0).timer.period > 0.05

    def test_still_recovers_losses(self):
        config = RecoveryConfig(gossip_interval=0.05, p_forward=1.0)
        harness = RecoveryHarness(
            path_tree(3), "adaptive-push", {0: (1,), 1: (), 2: (1,)}, config=config
        )
        lost = harness.publish_lossy(0, (1,), dead_links=[(1, 2)])
        harness.run_for(HORIZON)
        assert lost.event_id in harness.recovered_at(2)


class TestRegistry:
    def test_registry_names_match_classes(self):
        for name, cls in ALGORITHMS.items():
            assert cls.name == name

    def test_paper_algorithms_are_registered(self):
        for name in PAPER_ALGORITHMS:
            assert name in ALGORITHMS

    def test_create_recovery_unknown_name(self):
        with pytest.raises(KeyError):
            create_recovery("telepathy", None, None, None)

    def test_route_recording_flags(self):
        assert ALGORITHMS["publisher-pull"].requires_route_recording
        assert ALGORITHMS["combined-pull"].requires_route_recording
        assert not ALGORITHMS["push"].requires_route_recording
        assert not ALGORITHMS["subscriber-pull"].requires_route_recording

"""Tests for gossip payloads."""

from __future__ import annotations

from repro.recovery.digest import (
    PublisherPullGossip,
    PushGossip,
    RandomPullGossip,
    RandomPushGossip,
    SubscriberPullGossip,
)
from tests.conftest import make_event


class TestPayloads:
    def test_push_gossip_fields(self):
        events = (make_event(0, 1, (3,)), make_event(2, 5, (3,)))
        payload = PushGossip(gossiper=7, pattern=3, events=events)
        assert payload.gossiper == 7
        assert payload.pattern == 3
        assert payload.events == events

    def test_subscriber_pull_replace_entries(self):
        payload = SubscriberPullGossip(1, 3, ((0, 3, 1), (0, 3, 2)))
        shrunk = payload.replace_entries(((0, 3, 2),))
        assert shrunk.gossiper == 1
        assert shrunk.pattern == 3
        assert shrunk.entries == ((0, 3, 2),)
        assert payload.entries == ((0, 3, 1), (0, 3, 2))  # original untouched

    def test_publisher_pull_advance_strips_hop(self):
        payload = PublisherPullGossip(5, 0, (4, 2, 0), ((0, 3, 1),))
        advanced = payload.advance(((0, 3, 1),))
        assert advanced.remaining_route == (2, 0)
        advanced = advanced.advance(())
        assert advanced.remaining_route == (0,)

    def test_random_pull_hop_budget(self):
        payload = RandomPullGossip(5, ((0, 3, 1),), hops_left=3)
        hop = payload.next_hop(((0, 3, 1),))
        assert hop.hops_left == 2
        assert hop.gossiper == 5

    def test_random_push_hop_budget(self):
        events = (make_event(0, 1, (3,)),)
        payload = RandomPushGossip(5, 3, events, hops_left=2)
        hop = payload.next_hop()
        assert hop.hops_left == 1
        assert hop.pattern == 3
        assert hop.events == events

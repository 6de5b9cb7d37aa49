"""Tests for PubSubSystem's ground-truth bookkeeping and queries."""

from __future__ import annotations

import pytest

from repro.pubsub.pattern import PatternSpace
from repro.sim.engine import Simulator
from repro.topology.generator import path_tree
from tests.conftest import build_system, make_event


def make_system(n=4):
    sim = Simulator()
    system = build_system(sim, path_tree(n), PatternSpace(10))
    return sim, system


class TestGroundTruth:
    def test_subscribers_of_tracks_assignment(self):
        sim, system = make_system()
        system.apply_subscriptions({0: (1, 2), 1: (2,), 2: (), 3: (1,)})
        assert system.subscribers_of(1) == frozenset({0, 3})
        assert system.subscribers_of(2) == frozenset({0, 1})
        assert system.subscribers_of(9) == frozenset()
        assert system.subscribed_patterns() == [1, 2]

    def test_subscriptions_of(self):
        sim, system = make_system()
        system.apply_subscriptions({0: (1, 2), 1: ()})
        assert system.subscriptions_of(0) == frozenset({1, 2})
        assert system.subscriptions_of(1) == frozenset()

    def test_unsubscribe_updates_ground_truth(self):
        sim, system = make_system()
        system.apply_subscriptions({0: (1,), 1: (1,)})
        system.unsubscribe(0, 1, via_protocol=False)
        assert system.subscribers_of(1) == frozenset({1})
        system.unsubscribe(1, 1, via_protocol=False)
        assert system.subscribers_of(1) == frozenset()
        assert system.subscribed_patterns() == []

    def test_expected_recipients_unions_patterns(self):
        sim, system = make_system()
        system.apply_subscriptions({0: (1,), 1: (2,), 2: (3,), 3: ()})
        event = make_event(source=3, patterns=(1, 2))
        assert system.expected_recipients(event) == {0, 1}
        only_three = make_event(source=3, seq=2, patterns=(3,))
        assert system.expected_recipients(only_three) == {2}
        nothing = make_event(source=3, seq=3, patterns=(9,))
        assert system.expected_recipients(nothing) == set()

    def test_expected_recipients_includes_subscribed_publisher(self):
        sim, system = make_system()
        system.apply_subscriptions({0: (1,), 1: ()})
        event = make_event(source=0, patterns=(1,))
        assert 0 in system.expected_recipients(event)

    def test_invalid_pattern_rejected(self):
        sim, system = make_system()
        with pytest.raises(ValueError):
            system.subscribe(0, 10, via_protocol=False)

    def test_delivery_callback_fanout(self):
        sim, system = make_system()
        seen = []
        system.set_delivery_callback(lambda n, e, r, t: seen.append(n))
        system.apply_subscriptions({0: (), 3: (5,)})
        system.publish(0, (5,))
        sim.run()
        assert seen == [3]

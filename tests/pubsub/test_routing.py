"""Routing correctness: events reach exactly the right subscribers.

These are the load-bearing substrate tests: with reliable links the
best-effort system must behave as a perfect content-based multicast, and
the protocol-based subscription forwarding must converge to precisely the
tables the oracle computes.
"""

from __future__ import annotations

import random

import pytest
from hypothesis import given, settings, strategies as st

from repro.pubsub.pattern import PatternSpace
from repro.sim.engine import Simulator
from repro.topology.generator import path_tree, random_tree
from tests.conftest import build_system


def random_assignment(n, space, rng, pi_max=2):
    return {
        node: space.sample_subscription(rng.randint(0, pi_max), rng)
        for node in range(n)
    }


class DeliveryLog:
    def __init__(self):
        self.deliveries = []

    def __call__(self, node_id, event, recovered, now):
        self.deliveries.append((node_id, event.event_id, recovered))


class TestReliableDelivery:
    @settings(max_examples=25, deadline=None)
    @given(
        n=st.integers(min_value=2, max_value=40),
        seed=st.integers(),
        publishes=st.integers(min_value=1, max_value=20),
    )
    def test_events_reach_exactly_the_subscribers(self, n, seed, publishes):
        rng = random.Random(seed)
        sim = Simulator()
        space = PatternSpace(12)
        tree = random_tree(n, rng, max_degree=4)
        system = build_system(sim, tree, space, error_rate=0.0)
        log = DeliveryLog()
        system.set_delivery_callback(log)
        system.apply_subscriptions(random_assignment(n, space, rng))

        expected = []
        for _ in range(publishes):
            publisher = rng.randrange(n)
            patterns = space.sample_event_patterns(rng)
            event = system.publish(publisher, patterns)
            expected.append((event.event_id, system.expected_recipients(event)))
        sim.run()

        delivered = {}
        for node_id, event_id, recovered in log.deliveries:
            assert not recovered
            delivered.setdefault(event_id, set()).add(node_id)
        for event_id, recipients in expected:
            assert delivered.get(event_id, set()) == recipients

    @settings(max_examples=25, deadline=None)
    @given(
        n=st.integers(min_value=2, max_value=40),
        seed=st.integers(),
    )
    def test_no_duplicate_deliveries(self, n, seed):
        rng = random.Random(seed)
        sim = Simulator()
        space = PatternSpace(8)
        tree = random_tree(n, rng, max_degree=4)
        system = build_system(sim, tree, space, error_rate=0.0)
        log = DeliveryLog()
        system.set_delivery_callback(log)
        system.apply_subscriptions(random_assignment(n, space, rng))
        for _ in range(10):
            system.publish(rng.randrange(n), space.sample_event_patterns(rng))
        sim.run()
        pairs = [(node, event) for node, event, _ in log.deliveries]
        assert len(pairs) == len(set(pairs))

    def test_publisher_delivers_to_itself_when_subscribed(self):
        sim = Simulator()
        space = PatternSpace(5)
        tree = path_tree(3)
        system = build_system(sim, tree, space)
        log = DeliveryLog()
        system.set_delivery_callback(log)
        system.apply_subscriptions({0: (2,), 1: (), 2: ()})
        event = system.publish(0, (2,))
        sim.run()
        assert log.deliveries == [(0, event.event_id, False)]

    def test_event_matching_nothing_goes_nowhere(self):
        sim = Simulator()
        space = PatternSpace(5)
        tree = path_tree(4)
        system = build_system(sim, tree, space)
        log = DeliveryLog()
        system.set_delivery_callback(log)
        system.apply_subscriptions({0: (1,), 1: (), 2: (), 3: ()})
        system.publish(3, (4,))
        sim.run()
        assert log.deliveries == []
        # And no traffic at all: node 3's table has no direction for 4.
        assert sum(system.network.sent_tally) == 0

    def test_multi_pattern_event_gets_single_copy_per_subscriber(self):
        # A subscriber matching via two patterns still receives once.
        sim = Simulator()
        space = PatternSpace(5)
        tree = path_tree(2)
        system = build_system(sim, tree, space)
        log = DeliveryLog()
        system.set_delivery_callback(log)
        system.apply_subscriptions({0: (), 1: (1, 2)})
        system.publish(0, (1, 2))
        sim.run()
        assert len(log.deliveries) == 1

    def test_lossy_link_prunes_subtree(self):
        # On a path 0-1-2 with the 0-1 link fully lossy, neither 1 nor 2
        # receives anything.
        sim = Simulator()
        space = PatternSpace(5)
        tree = path_tree(3)
        system = build_system(sim, tree, space, error_rate=0.0)
        system.network.link(0, 1).set_error_rate(1.0)
        log = DeliveryLog()
        system.set_delivery_callback(log)
        system.apply_subscriptions({0: (), 1: (1,), 2: (1,)})
        system.publish(0, (1,))
        sim.run()
        assert log.deliveries == []


class TestRouteRecording:
    def test_event_route_is_tree_path(self):
        sim = Simulator()
        space = PatternSpace(5)
        tree = path_tree(4)
        system = build_system(sim, tree, space, record_routes=True)
        routes = {}

        class Probe:
            def __init__(self, node_id):
                self.node_id = node_id

            def on_event_received(self, event, route):
                routes[self.node_id] = route

            def on_event_published(self, event):
                pass

            def handle_gossip(self, payload, from_node):
                pass

            def handle_oob_request(self, payload, from_node):
                pass

        for dispatcher in system.dispatchers:
            dispatcher.attach_recovery(Probe(dispatcher.node_id))
        system.apply_subscriptions({0: (), 1: (), 2: (), 3: (1,)})
        system.publish(0, (1,))
        sim.run()
        # Node 3 received the event via 0 -> 1 -> 2 -> 3; the recorded
        # route lists the hops that forwarded it (publisher included).
        assert routes[3] == (0, 1, 2)

    def test_route_none_when_recording_disabled(self):
        sim = Simulator()
        space = PatternSpace(5)
        tree = path_tree(2)
        system = build_system(sim, tree, space, record_routes=False)
        seen = []

        class Probe:
            node_id = 1

            def on_event_received(self, event, route):
                seen.append(route)

            def on_event_published(self, event):
                pass

            def handle_gossip(self, payload, from_node):
                pass

            def handle_oob_request(self, payload, from_node):
                pass

        system.dispatchers[1].attach_recovery(Probe())
        system.apply_subscriptions({0: (), 1: (1,)})
        system.publish(0, (1,))
        sim.run()
        assert seen == [None]


class TestSequenceTags:
    def test_per_pattern_sequence_numbers_increment(self):
        sim = Simulator()
        space = PatternSpace(5)
        tree = path_tree(2)
        system = build_system(sim, tree, space)
        system.apply_subscriptions({0: (), 1: (1, 2)})
        e1 = system.publish(0, (1,))
        e2 = system.publish(0, (1, 2))
        e3 = system.publish(0, (2,))
        assert e1.pattern_seqs == {1: 1}
        assert e2.pattern_seqs == {1: 2, 2: 1}
        assert e3.pattern_seqs == {2: 2}
        assert (e1.event_id.seq, e2.event_id.seq, e3.event_id.seq) == (1, 2, 3)

    def test_counters_are_per_publisher(self):
        sim = Simulator()
        space = PatternSpace(5)
        tree = path_tree(2)
        system = build_system(sim, tree, space)
        system.apply_subscriptions({0: (), 1: ()})
        a = system.publish(0, (1,))
        b = system.publish(1, (1,))
        assert a.pattern_seqs == {1: 1}
        assert b.pattern_seqs == {1: 1}

    def test_duplicate_patterns_rejected(self):
        sim = Simulator()
        space = PatternSpace(5)
        tree = path_tree(2)
        system = build_system(sim, tree, space)
        with pytest.raises(ValueError):
            system.publish(0, (1, 1))

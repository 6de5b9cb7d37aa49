"""Edge cases of the dispatcher's message handling."""

from __future__ import annotations

import pytest

from repro.network.message import Message, MessageKind
from repro.pubsub.pattern import PatternSpace
from repro.sim.engine import Simulator
from repro.topology.generator import path_tree
from tests.conftest import (
    build_system, has_received, make_event, make_system_event,
)


def make_two_node_system():
    sim = Simulator()
    system = build_system(sim, path_tree(2), PatternSpace(10))
    return sim, system


class TestUnwiredRecovery:
    def test_gossip_ignored_without_recovery(self):
        sim, system = make_two_node_system()
        dispatcher = system.dispatchers[0]
        dispatcher.receive(Message(MessageKind.GOSSIP, object(), 1), 1)
        dispatcher.receive_oob(Message(MessageKind.OOB_REQUEST, (), 1), 1)
        sim.run()  # nothing scheduled, nothing crashed

    def test_control_messages_ignored(self):
        sim, system = make_two_node_system()
        system.dispatchers[0].receive(Message(MessageKind.CONTROL, None, 1), 1)


class TestRecoveredEventHandling:
    def test_duplicate_recovered_event_not_redelivered(self):
        sim, system = make_two_node_system()
        system.apply_subscriptions({0: (), 1: (3,)})
        deliveries = []
        system.set_delivery_callback(
            lambda node, event, recovered, now: deliveries.append((node, recovered))
        )
        event = make_system_event(system, source=0, seq=1, patterns=(3,))
        dispatcher = system.dispatchers[1]
        assert dispatcher.receive_recovered_event(event) is True
        assert dispatcher.receive_recovered_event(event) is False
        assert deliveries == [(1, True)]

    def test_recovered_event_not_counted_when_not_subscribed(self):
        sim, system = make_two_node_system()
        system.apply_subscriptions({0: (), 1: (3,)})
        deliveries = []
        system.set_delivery_callback(
            lambda node, event, recovered, now: deliveries.append(node)
        )
        dispatcher = system.dispatchers[1]
        event = make_system_event(system, source=0, seq=1, patterns=(5,))
        dispatcher.receive_recovered_event(event)
        assert deliveries == []
        assert not dispatcher.cache.contains(event.event_id)
        # But the event is remembered, so a later tree copy is deduped.
        assert has_received(dispatcher, event)

    def test_recovered_event_cached_for_subscriber(self):
        sim, system = make_two_node_system()
        system.apply_subscriptions({0: (), 1: (3,)})
        dispatcher = system.dispatchers[1]
        event = make_system_event(system, source=0, seq=1, patterns=(3,))
        dispatcher.receive_recovered_event(event)
        assert dispatcher.cache.contains(event.event_id)


class TestDuplicateTreeCopies:
    def test_duplicate_event_message_dropped(self):
        sim, system = make_two_node_system()
        system.apply_subscriptions({0: (), 1: (3,)})
        deliveries = []
        system.set_delivery_callback(
            lambda node, event, recovered, now: deliveries.append(node)
        )
        event = make_system_event(system, source=0, seq=1, patterns=(3,))
        message = Message(MessageKind.EVENT, (event, None), 0)
        dispatcher = system.dispatchers[1]
        dispatcher.receive(message, 0)
        dispatcher.receive(message, 0)
        assert deliveries == [1]


class TestEventWithoutRow:
    """An event built outside a system has no row in the received-id
    matrix: receiving it must raise, never read another event's row."""

    def test_tree_copy_raises(self):
        sim, system = make_two_node_system()
        system.apply_subscriptions({0: (), 1: (3,)})
        system.publish(0, (3,))  # row 0 exists and belongs to this event
        stray = make_event(source=0, seq=9, patterns=(3,))
        assert stray.row is None
        with pytest.raises(TypeError):
            system.dispatchers[1].receive(
                Message(MessageKind.EVENT, (stray, None), 0), 0
            )

    def test_recovered_copy_raises(self):
        sim, system = make_two_node_system()
        system.apply_subscriptions({0: (), 1: (3,)})
        with pytest.raises(TypeError):
            system.dispatchers[1].receive_recovered_event(
                make_event(source=0, seq=1, patterns=(3,))
            )


class TestMatchCounters:
    def test_published_and_delivered_counters(self):
        """One publish takes the publisher's first sequence number and is
        delivered once at each subscriber, the publisher included."""
        sim, system = make_two_node_system()
        system.apply_subscriptions({0: (1,), 1: (1,)})
        deliveries = []
        system.set_delivery_callback(
            lambda node, event, recovered, now: deliveries.append(
                (node, event.event_id.seq, recovered)
            )
        )
        event = system.publish(0, (1,))
        sim.run()
        assert event.event_id.seq == 1
        assert deliveries == [(0, 1, False), (1, 1, False)]


class TestForwardedCaching:
    def test_pure_forwarder_does_not_cache(self):
        # Paper: "each dispatcher caches only events for which it is
        # either the publisher or a subscriber".
        sim = Simulator()
        system = build_system(sim, path_tree(3), PatternSpace(10))
        system.apply_subscriptions({0: (), 1: (), 2: (3,)})
        event = system.publish(0, (3,))
        sim.run()
        assert system.dispatchers[0].cache.contains(event.event_id)  # publisher
        assert not system.dispatchers[1].cache.contains(event.event_id)  # forwarder
        assert system.dispatchers[2].cache.contains(event.event_id)  # subscriber

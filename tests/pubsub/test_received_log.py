"""The received-id matrix against per-node reference ``set``\\ s.

Every dispatcher deduplicates against one bit column of the system's
``EventIdRegistry`` matrix (byte ``i >> 3``, bit ``1 << (i & 7)`` of each
event's row).  These tests drive real dispatchers -- publishes, tree
copies and recovered copies -- next to one reference ``set`` per node and
compare every receipt and every lookup.  N = 9 and N = 17 put node ids
7/8 and 15/16 on either side of a byte boundary while nodes 0-7 and 8-15
share byte columns, so a wrong column or bit shows up as one node's
receipt in another node's lookups.
"""

from __future__ import annotations

from hypothesis import given, settings, strategies as st

from repro.network.message import Message, MessageKind
from repro.pubsub.pattern import PatternSpace
from repro.sim.engine import Simulator
from repro.topology.generator import path_tree
from tests.conftest import build_system, has_received

SIZES = (9, 17)

_ops = st.lists(
    st.tuples(
        st.sampled_from(("publish", "tree", "recovered")),
        st.integers(min_value=0, max_value=16),  # node id, modulo N
        st.integers(min_value=0, max_value=40),  # event index, modulo count
    ),
    max_size=80,
)


def _system(n: int):
    """N dispatchers, all subscribed to pattern 1, with a delivery log.
    The simulator never runs, so forwarded copies stay in flight."""
    system = build_system(Simulator(), path_tree(n), PatternSpace(4))
    system.apply_subscriptions({node: (1,) for node in range(n)})
    deliveries: list = []
    system.set_delivery_callback(
        lambda node, event, recovered, now: deliveries.append(
            (node, event.event_id)
        )
    )
    return system, deliveries


@settings(max_examples=150, deadline=None)
@given(n=st.sampled_from(SIZES), ops=_ops)
def test_matches_a_set_under_any_operation_stream(n, ops):
    system, deliveries = _system(n)
    references = [set() for _ in range(n)]
    expected_deliveries: list = []
    events: list = []
    for kind, raw_node, raw_index in ops:
        node = raw_node % n
        dispatcher = system.dispatchers[node]
        if kind == "publish":
            event = system.publish(node, (1,))
            events.append(event)
        elif not events:
            continue
        else:
            event = events[raw_index % len(events)]
            if kind == "tree":
                dispatcher.receive(Message(MessageKind.EVENT, (event, None), 0), 0)
            else:
                new = dispatcher.receive_recovered_event(event)
                assert new == (event.event_id not in references[node])
        if event.event_id not in references[node]:
            references[node].add(event.event_id)
            expected_deliveries.append((node, event.event_id))
        assert deliveries == expected_deliveries
        for other in range(n):
            assert has_received(system.dispatchers[other], event) == (
                event.event_id in references[other]
            ), (node, other)
    for node in range(n):
        for event in events:
            assert has_received(system.dispatchers[node], event) == (
                event.event_id in references[node]
            )


def test_no_node_sees_another_nodes_receipts():
    for n in SIZES:
        system, _ = _system(n)
        events = [system.publish(0, (1,)) for _ in range(3)]
        for node in range(1, n):
            before = bytes(system.event_registry.seen)
            for event in events:
                assert system.dispatchers[node].receive_recovered_event(event)
            for other in range(1, n):
                for event in events:
                    assert has_received(system.dispatchers[other], event) == (
                        other <= node
                    ), (n, node, other)
            # Exactly one bit per event row changed.
            after = system.event_registry.seen
            flipped = sum(
                (a ^ b).bit_count() for a, b in zip(before, after)
            )
            assert flipped == len(events)


def test_one_zeroed_row_per_event():
    for n, stride in ((8, 1), (9, 2), (17, 3)):
        system, _ = _system(n)
        registry = system.event_registry
        assert registry.stride == stride
        first = system.publish(0, (1,))
        second = system.publish(n - 1, (1,))
        assert (first.row, second.row) == (0, stride)
        assert len(registry.seen) == 2 * stride
        # Only each publisher's own bit is set.
        assert registry.seen[0] == 1
        assert registry.seen[stride + ((n - 1) >> 3)] == 1 << ((n - 1) & 7)
        assert sum(registry.seen) == 1 + (1 << ((n - 1) & 7))

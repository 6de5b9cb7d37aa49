"""Tests for events and identifiers."""

from __future__ import annotations

import pickle

import pytest

from repro.pubsub.event import Event, EventId
from tests.conftest import make_event


class TestEventId:
    def test_equality_and_hash(self):
        assert EventId(1, 2) == EventId(1, 2)
        assert EventId(1, 2) != EventId(1, 3)
        assert EventId(1, 2) != EventId(2, 2)
        assert hash(EventId(1, 2)) == hash(EventId(1, 2))
        assert len({EventId(1, 2), EventId(1, 2), EventId(1, 3)}) == 2

    def test_ordering(self):
        assert EventId(1, 5) < EventId(2, 1)
        assert EventId(1, 1) < EventId(1, 2)

    def test_as_tuple(self):
        assert EventId(3, 7).as_tuple() == (3, 7)

    def test_not_equal_to_other_types(self):
        assert EventId(1, 2) != (1, 2)

    def test_hash_equals_plain_tuple_hash(self):
        # What keeps every run signature stable: set and dict iteration
        # orders over ids depend on these hashes.
        for source, seq in ((0, 1), (1, 2), (99, 1), (7, 123456), (-1, 0)):
            assert hash(EventId(source, seq)) == hash((source, seq))

    def test_not_equal_to_plain_tuple_in_either_order(self):
        assert not EventId(1, 2) == (1, 2)
        assert not (1, 2) == EventId(1, 2)
        assert (1, 2) != EventId(1, 2)
        # Equal hashes, so a dict probe reaches __eq__ and must miss.
        assert {(1, 2): "tuple"}.get(EventId(1, 2)) is None

    def test_pickle_round_trip(self):
        # Campaign journals and process pools carry ids across processes.
        original = EventId(4, 17)
        for protocol in range(2, pickle.HIGHEST_PROTOCOL + 1):
            copy = pickle.loads(pickle.dumps(original, protocol))
            assert type(copy) is EventId
            assert copy == original and copy is not original
            assert hash(copy) == hash(original)
            assert {original: "x"}[copy] == "x"

    def test_repr_and_fields(self):
        event_id = EventId(3, 7)
        assert repr(event_id) == "EventId(3, 7)"
        assert event_id.source == 3
        assert event_id.seq == 7


class TestEvent:
    def test_construction_and_accessors(self):
        event = make_event(source=4, seq=9, patterns=(2, 7), publish_time=1.5)
        assert event.source == 4
        assert event.event_id == EventId(4, 9)
        assert event.patterns == (2, 7)
        assert event.publish_time == 1.5

    def test_matching(self):
        event = make_event(patterns=(2, 7))
        assert event.matches(2)
        assert not event.matches(3)
        assert event.matches_any({3, 7})
        assert not event.matches_any({3, 4})

    def test_empty_patterns_rejected(self):
        with pytest.raises(ValueError):
            Event(EventId(0, 1), (), {}, 0.0)

    def test_mismatched_tags_rejected(self):
        with pytest.raises(ValueError):
            Event(EventId(0, 1), (2, 3), {2: 1}, 0.0)
        with pytest.raises(ValueError):
            Event(EventId(0, 1), (2,), {2: 1, 3: 1}, 0.0)

    def test_identity_semantics(self):
        a = make_event(source=0, seq=1, patterns=(5,))
        b = make_event(source=0, seq=1, patterns=(6,))  # same id, other body
        assert a == b
        assert hash(a) == hash(b)
        assert len({a, b}) == 1

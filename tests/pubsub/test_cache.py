"""Tests for the FIFO event cache (β), including property-based checks."""

from __future__ import annotations

import pytest
from hypothesis import given, settings, strategies as st

from repro.pubsub.cache import EventCache
from repro.pubsub.event import EventIdRegistry
from tests.conftest import make_event, publish_event


class TestBasics:
    def test_insert_and_get(self):
        cache = EventCache(10)
        event = make_event(source=1, seq=1, patterns=(3,))
        assert cache.insert(event)
        assert cache.get(event.event_id) is event
        assert cache.contains(event.event_id)
        assert len(cache) == 1

    def test_miss_returns_none_and_counts(self):
        cache = EventCache(10)
        assert cache.get(make_event().event_id) is None
        assert cache.misses == 1

    def test_fifo_eviction_order(self):
        cache = EventCache(3)
        events = [make_event(seq=i) for i in range(1, 6)]
        for event in events:
            cache.insert(event)
        assert not cache.contains(events[0].event_id)
        assert not cache.contains(events[1].event_id)
        assert all(cache.contains(e.event_id) for e in events[2:])
        assert cache.evictions == 2

    def test_reinsert_does_not_refresh_position(self):
        cache = EventCache(2)
        e1, e2, e3 = (make_event(seq=i) for i in (1, 2, 3))
        cache.insert(e1)
        cache.insert(e2)
        cache.insert(e1)  # no-op, e1 stays oldest (FIFO, not LRU)
        cache.insert(e3)
        assert not cache.contains(e1.event_id)
        assert cache.contains(e2.event_id)
        assert cache.contains(e3.event_id)

    def test_zero_capacity_caches_nothing(self):
        cache = EventCache(0)
        assert cache.insert(make_event()) is False
        assert len(cache) == 0

    def test_negative_capacity_rejected(self):
        with pytest.raises(ValueError):
            EventCache(-1)

    def test_oldest(self):
        cache = EventCache(5)
        assert next(iter(cache), None) is None
        e1, e2 = make_event(seq=1), make_event(seq=2)
        cache.insert(e1)
        cache.insert(e2)
        assert next(iter(cache)) is e1


class TestIndexes:
    def test_loss_key_lookup(self):
        cache = EventCache(10)
        registry = EventIdRegistry(3)
        publish_event(registry, source=2, seq=1, patterns=(3,))
        event = publish_event(registry, source=2, seq=2, patterns=(3, 8))
        cache.insert(event)
        found, unmet = cache.split_loss_keys(
            ((2, 3, 2), (2, 8, 1), (2, 3, 3), (2, 3, 1), (9, 3, 2)),
            registry.published,
        )
        assert found == [event, event]
        assert unmet == ((2, 3, 3), (2, 3, 1), (9, 3, 2))

    def test_loss_key_removed_on_eviction(self):
        cache = EventCache(1)
        registry = EventIdRegistry(1)
        e1 = publish_event(registry, source=0, seq=1, patterns=(3,))
        e2 = publish_event(registry, source=0, seq=2, patterns=(4,))
        cache.insert(e1)
        cache.insert(e2)
        assert cache.split_loss_keys(((0, 3, 1), (0, 4, 1)), registry.published) == (
            [e2], ((0, 3, 1),)
        )

    def test_matching_returns_oldest_first(self):
        cache = EventCache(10)
        events = [make_event(seq=i, patterns=(7,)) for i in (1, 2, 3)]
        other = make_event(seq=4, patterns=(9,))
        for event in events + [other]:
            cache.insert(event)
        assert cache.matching_ids(7) == [e.event_id for e in events]
        assert cache.matching_ids(9) == [other.event_id]
        assert cache.matching_ids(1) == []

    def test_pattern_index_consistent_after_eviction(self):
        cache = EventCache(2)
        events = [make_event(seq=i, patterns=(7,)) for i in (1, 2, 3)]
        for event in events:
            cache.insert(event)
        assert cache.matching_ids(7) == [events[1].event_id, events[2].event_id]


class TestProperties:
    @settings(max_examples=60, deadline=None)
    @given(
        capacity=st.integers(min_value=1, max_value=20),
        count=st.integers(min_value=0, max_value=100),
    )
    def test_capacity_never_exceeded_and_newest_survive(self, capacity, count):
        cache = EventCache(capacity)
        events = [make_event(seq=i + 1, patterns=(i % 5,)) for i in range(count)]
        for event in events:
            cache.insert(event)
        assert len(cache) == min(capacity, count)
        survivors = events[-capacity:] if count else []
        assert [e.event_id for e in cache] == [e.event_id for e in survivors]

    @settings(max_examples=40, deadline=None)
    @given(
        capacity=st.integers(min_value=1, max_value=15),
        count=st.integers(min_value=0, max_value=80),
    )
    def test_indexes_agree_with_contents(self, capacity, count):
        cache = EventCache(capacity)
        registry = EventIdRegistry(3)
        for i in range(count):
            cache.insert(
                publish_event(
                    registry, source=i % 3, seq=i + 1, patterns=(i % 4, 4 + i % 3)
                )
            )
        for event in cache:
            for pattern, seq in event.pattern_seqs.items():
                key = (event.source, pattern, seq)
                assert cache.split_loss_keys((key,), registry.published) == (
                    [event], ()
                )
                assert event.event_id in cache.matching_ids(pattern)
        for pattern in range(8):
            for event_id in cache.matching_ids(pattern):
                assert cache.contains(event_id)

"""Tests for the alternative cache eviction policies (lru, random)."""

from __future__ import annotations

import random

import pytest
from hypothesis import given, settings, strategies as st

from repro.pubsub.cache import CACHE_POLICIES, EventCache
from repro.pubsub.event import EventIdRegistry
from tests.conftest import make_event, publish_event


class TestPolicyValidation:
    def test_known_policies(self):
        assert set(CACHE_POLICIES) == {"fifo", "lru", "random"}

    def test_unknown_policy_rejected(self):
        with pytest.raises(ValueError):
            EventCache(5, policy="clairvoyant")

    def test_random_policy_requires_rng(self):
        with pytest.raises(ValueError):
            EventCache(5, policy="random")


class TestLru:
    def test_hit_refreshes_position(self):
        cache = EventCache(2, policy="lru")
        e1, e2, e3 = (make_event(seq=i) for i in (1, 2, 3))
        cache.insert(e1)
        cache.insert(e2)
        cache.get(e1.event_id)  # refresh e1: now e2 is the LRU victim
        cache.insert(e3)
        assert cache.contains(e1.event_id)
        assert not cache.contains(e2.event_id)

    def test_loss_key_hit_also_refreshes(self):
        cache = EventCache(2, policy="lru")
        registry = EventIdRegistry(1)
        e1 = publish_event(registry, source=0, seq=1, patterns=(3,))
        e2 = publish_event(registry, source=0, seq=2, patterns=(4,))
        e3 = publish_event(registry, source=0, seq=3, patterns=(5,))
        cache.insert(e1)
        cache.insert(e2)
        cache.split_loss_keys(((0, 3, 1),), registry.published)
        cache.insert(e3)
        assert cache.contains(e1.event_id)
        assert not cache.contains(e2.event_id)

    def test_without_hits_lru_degenerates_to_fifo(self):
        fifo = EventCache(3, policy="fifo")
        lru = EventCache(3, policy="lru")
        events = [make_event(seq=i) for i in range(1, 8)]
        for event in events:
            fifo.insert(event)
            lru.insert(event)
        assert [e.event_id for e in fifo] == [e.event_id for e in lru]


class TestRandom:
    def test_capacity_respected(self):
        cache = EventCache(5, policy="random", rng=random.Random(1))
        for i in range(50):
            cache.insert(make_event(seq=i + 1))
        assert len(cache) == 5
        assert cache.evictions == 45

    def test_victims_are_spread_across_ages(self):
        # With random eviction the survivor set is not simply the newest
        # slice -- over many insertions some old entries survive.
        cache = EventCache(20, policy="random", rng=random.Random(7))
        events = [make_event(seq=i + 1) for i in range(200)]
        for event in events:
            cache.insert(event)
        survivors = {event.event_id.seq for event in cache}
        newest_slice = set(range(181, 201))
        assert survivors != newest_slice

    @settings(max_examples=30, deadline=None)
    @given(
        capacity=st.integers(min_value=1, max_value=12),
        count=st.integers(min_value=0, max_value=60),
        seed=st.integers(),
    )
    def test_indexes_stay_consistent(self, capacity, count, seed):
        cache = EventCache(capacity, policy="random", rng=random.Random(seed))
        registry = EventIdRegistry(3)
        for i in range(count):
            cache.insert(
                publish_event(registry, source=i % 3, seq=i + 1, patterns=(i % 5,))
            )
        assert len(cache) == min(capacity, count)
        for event in cache:
            assert cache.get(event.event_id) is event
            for pattern, seq in event.pattern_seqs.items():
                key = (event.source, pattern, seq)
                assert cache.split_loss_keys((key,), registry.published) == (
                    [event], ()
                )
                assert event.event_id in cache.matching_ids(pattern)


class TestEndToEndPolicies:
    def test_scenario_runs_with_each_policy(self):
        from repro.scenarios.config import SimulationConfig
        from repro.scenarios.runner import run_scenario

        base = SimulationConfig(
            n_dispatchers=10,
            n_patterns=8,
            publish_rate=10.0,
            sim_time=2.0,
            measure_start=0.2,
            measure_end=1.5,
            buffer_size=40,
            error_rate=0.1,
            algorithm="combined-pull",
        )
        for policy in CACHE_POLICIES:
            result = run_scenario(base.replace(cache_policy=policy))
            assert result.delivery_rate > 0.5, policy

    def test_unknown_policy_rejected_in_config(self):
        from repro.scenarios.config import SimulationConfig

        with pytest.raises(ValueError):
            SimulationConfig(cache_policy="clairvoyant")

"""CompactEventCache: differential equivalence with the classic FIFO cache.

The columnar ring must be behaviourally indistinguishable from
``EventCache(policy="fifo")``: same contents, same eviction order, same
hit/miss/insertion/eviction accounting, same lookup results.  The tests
drive both layouts with identical operation streams and compare, then
prove end-to-end signature equality on a small scenario.
"""

from __future__ import annotations

import random

import pytest

from repro.pubsub.cache import EventCache
from repro.pubsub.compact import CompactEventCache
from repro.pubsub.event import Event, EventId


def _event(source: int, seq: int, pattern_seqs: dict, t: float = 0.0) -> Event:
    return Event(EventId(source, seq), tuple(sorted(pattern_seqs)), pattern_seqs, t)


def _stats(cache) -> tuple:
    return (cache.insertions, cache.evictions, cache.hits, cache.misses)


class TestDifferentialEquivalence:
    def test_random_operation_stream_matches_classic(self):
        rng = random.Random(1234)
        classic = EventCache(capacity=16)
        compact = CompactEventCache(capacity=16)
        events = {}
        per_pattern_seq = {}
        next_seq = {}
        for step in range(3000):
            op = rng.randrange(6)
            if op <= 1:  # insert a fresh event
                source = rng.randrange(8)
                seq = next_seq.get(source, 0) + 1
                next_seq[source] = seq
                pattern_seqs = {}
                for pattern in rng.sample(range(10), rng.randint(1, 3)):
                    pseq = per_pattern_seq.get((source, pattern), 0) + 1
                    per_pattern_seq[(source, pattern)] = pseq
                    pattern_seqs[pattern] = pseq
                event = _event(source, seq, pattern_seqs)
                events[(source, seq)] = event
                assert classic.insert(event) == compact.insert(event)
            elif op == 2 and events:  # re-insert (duplicate no-op)
                event = events[rng.choice(list(events))]
                assert classic.insert(event) == compact.insert(event)
            elif op == 3:  # id lookup (mix of hits and misses)
                source = rng.randrange(8)
                seq = rng.randint(1, max(next_seq.get(source, 1), 1))
                got_classic = classic.get(EventId(source, seq))
                got_compact = compact.get(EventId(source, seq))
                assert got_classic is got_compact or (
                    got_classic == got_compact
                )
            elif op == 4 and per_pattern_seq:  # loss-key lookup
                (source, pattern), max_pseq = rng.choice(
                    list(per_pattern_seq.items())
                )
                pseq = rng.randint(1, max_pseq)
                assert classic.get_by_loss_key(
                    source, pattern, pseq
                ) is compact.get_by_loss_key(source, pattern, pseq)
            else:  # pattern scan (push digests)
                pattern = rng.randrange(10)
                assert classic.matching_ids(pattern) == compact.matching_ids(
                    pattern
                )
            assert len(classic) == len(compact)
            assert _stats(classic) == _stats(compact)
        # Final contents identical, oldest-first.
        assert [e.event_id for e in classic] == [e.event_id for e in compact]
        assert classic.oldest() is compact.oldest()

    def test_clear_matches_classic(self):
        classic = EventCache(capacity=4)
        compact = CompactEventCache(capacity=4)
        for seq in range(1, 7):
            event = _event(0, seq, {seq % 3: seq})
            classic.insert(event)
            compact.insert(event)
        classic.clear()
        compact.clear()
        assert len(classic) == len(compact) == 0
        assert classic.oldest() is None and compact.oldest() is None
        # Statistics survive the wipe in both layouts.
        assert _stats(classic) == _stats(compact)
        event = _event(9, 1, {5: 1})
        assert classic.insert(event) and compact.insert(event)
        assert classic.get(event.event_id) is compact.get(event.event_id)


class TestCompactSpecifics:
    def test_zero_capacity_rejects_inserts(self):
        cache = CompactEventCache(capacity=0)
        assert not cache.insert(_event(0, 1, {1: 1}))
        assert len(cache) == 0

    def test_non_fifo_policy_rejected(self):
        with pytest.raises(ValueError, match="FIFO-only"):
            CompactEventCache(capacity=4, policy="lru")

    def test_negative_capacity_rejected(self):
        with pytest.raises(ValueError):
            CompactEventCache(capacity=-1)

    def test_too_many_patterns_rejected(self):
        cache = CompactEventCache(capacity=4)
        with pytest.raises(ValueError, match="at most 3"):
            cache.insert(_event(0, 1, {1: 1, 2: 1, 3: 1, 4: 1}))

    def test_ring_wraparound_keeps_fifo_order(self):
        cache = CompactEventCache(capacity=3)
        events = [_event(0, seq, {0: seq}) for seq in range(1, 9)]
        for event in events:
            cache.insert(event)
        assert [e.event_id.seq for e in cache] == [6, 7, 8]
        assert cache.oldest().event_id.seq == 6
        assert cache.evictions == 5
        assert cache.contains(events[-1].event_id)
        assert not cache.contains(events[0].event_id)


class TestScenarioEquivalence:
    def test_compact_layout_preserves_signature(self, monkeypatch):
        import repro.scenarios.config as config_module
        from repro.scenarios.config import SimulationConfig
        from repro.scenarios.runner import run_scenario

        base = SimulationConfig(
            n_dispatchers=20,
            n_patterns=16,
            pi_max=2,
            publish_rate=20.0,
            error_rate=0.1,
            sim_time=2.0,
            measure_start=0.3,
            measure_end=1.7,
            buffer_size=40,
            algorithm="combined-pull",
            seed=77,
        )
        assert base.effective_cache_layout == "classic"
        classic = run_scenario(base)
        # Lower the cache threshold only: the gossip streams stay on the
        # Mersenne Twister, so the cache layout is the one difference.
        monkeypatch.setattr(config_module, "COMPACT_CACHE_MIN_NODES", 20)
        assert base.effective_cache_layout == "compact"
        assert base.effective_gossip_rng == "mt"
        compact = run_scenario(base)
        # Everything after the config object must be byte-identical: the
        # layouts may differ in memory, never in behaviour.
        assert classic.signature()[1:] == compact.signature()[1:]

    def test_auto_layout_resolution(self):
        from repro.scenarios.config import SimulationConfig

        small = SimulationConfig(n_dispatchers=100)
        assert small.effective_cache_layout == "classic"
        large = small.replace(n_dispatchers=5000)
        assert large.effective_cache_layout == "compact"
        # The columnar ring is FIFO-only: other policies stay classic.
        for policy in ("lru", "random"):
            other = large.replace(cache_policy=policy)
            assert other.effective_cache_layout == "classic"

"""``split_loss_keys``: one call per negative digest, differentially
equal to a per-entry scan of the cache contents.

Two caches of the same policy see the same operation stream; one serves
every digest through the batch lookup, the other through the per-entry
reference.  After every step both must return the same events (by
identity, in entry order) and unmet entries, keep the same hit/miss
totals, and hold their contents in the same order (which is where a
missed LRU refresh shows).
"""

from __future__ import annotations

import random

import pytest

from repro.pubsub.cache import EventCache
from repro.pubsub.event import Event, EventId


def _event(source: int, seq: int, pattern_seqs: dict) -> Event:
    return Event(EventId(source, seq), tuple(sorted(pattern_seqs)), pattern_seqs, 0.0)


def _per_entry(cache, entries):
    """The reference: per digest entry, scan the cached events for the
    one carrying that loss key; a hit goes through ``get`` (hit count,
    LRU refresh), a miss is counted by hand."""
    found, unmet = [], []
    for source, pattern, seq in entries:
        for event in cache:
            if event.source == source and event.pattern_seqs.get(pattern) == seq:
                found.append(cache.get(event.event_id))
                break
        else:
            unmet.append((source, pattern, seq))
            cache.misses += 1
    return found, tuple(unmet)


def _pair(policy: str, capacity: int):
    if policy == "random":
        return (
            EventCache(capacity, policy="random", rng=random.Random(7)),
            EventCache(capacity, policy="random", rng=random.Random(7)),
        )
    return EventCache(capacity, policy=policy), EventCache(capacity, policy=policy)


def _ids(cache) -> list:
    return [event.event_id for event in cache]


def _stats(cache) -> tuple:
    return (cache.insertions, cache.evictions, cache.hits, cache.misses)


POLICIES = ["fifo", "lru", "random"]


@pytest.mark.parametrize("policy", POLICIES)
def test_random_stream_matches_per_entry_loop(policy):
    rng = random.Random(2024)
    batch, loop = _pair(policy, capacity=12)
    next_seq = {}
    pattern_seq = {}
    for _step in range(1500):
        if rng.random() < 0.45:
            source = rng.randrange(6)
            seq = next_seq[source] = next_seq.get(source, 0) + 1
            pattern_seqs = {}
            for pattern in rng.sample(range(8), rng.randint(1, 3)):
                key = (source, pattern)
                pattern_seqs[pattern] = pattern_seq[key] = pattern_seq.get(key, 0) + 1
            event = _event(source, seq, pattern_seqs)
            assert batch.insert(event) == loop.insert(event)
        elif pattern_seq:
            # A digest: real keys (hits or evicted), duplicates and
            # never-published sequence numbers, in random order.
            entries = []
            for _ in range(rng.randint(1, 10)):
                (source, pattern), top = rng.choice(sorted(pattern_seq.items()))
                entries.append((source, pattern, rng.randint(1, top + 2)))
            got = batch.split_loss_keys(tuple(entries))
            want = _per_entry(loop, entries)
            assert [id(e) for e in got[0]] == [id(e) for e in want[0]]
            assert got[1] == want[1]
        assert _ids(batch) == _ids(loop)
        assert _stats(batch) == _stats(loop)
    assert batch.hits > 0 and batch.misses > 0


@pytest.mark.parametrize("policy", POLICIES)
def test_two_keys_of_one_event_return_it_twice(policy):
    batch, loop = _pair(policy, capacity=4)
    both = _event(0, 1, {3: 1, 5: 1})
    other = _event(0, 2, {3: 2})
    for cache in (batch, loop):
        cache.insert(both)
        cache.insert(other)
    entries = ((0, 3, 1), (9, 9, 9), (0, 5, 1), (0, 3, 2))
    found, unmet = batch.split_loss_keys(entries)
    assert found == [both, both, other]
    assert found[0] is both and found[1] is both
    assert unmet == ((9, 9, 9),)
    assert (found, unmet) == _per_entry(loop, entries)
    assert (batch.hits, batch.misses) == (3, 1) == (loop.hits, loop.misses)
    assert _ids(batch) == _ids(loop)


def test_lru_order_after_a_batch():
    cache = EventCache(3, policy="lru")
    events = [_event(0, seq, {seq: 1}) for seq in (1, 2, 3)]
    for event in events:
        cache.insert(event)
    # Hits refresh in entry order: 1 then 2 move behind 3.
    cache.split_loss_keys(((0, 1, 1), (0, 7, 1), (0, 2, 1)))
    assert _ids(cache) == [EventId(0, 3), EventId(0, 1), EventId(0, 2)]
    cache.insert(_event(0, 4, {4: 1}))  # evicts the least recent: 3
    assert not cache.contains(EventId(0, 3))


def test_loss_index_activates_lazily():
    cache = EventCache(4)
    early = _event(1, 1, {2: 1})
    cache.insert(early)
    assert not cache._loss_index_active
    found, unmet = cache.split_loss_keys(((1, 2, 1),))
    assert cache._loss_index_active
    assert found == [early] and unmet == ()
    late = _event(1, 2, {2: 2})
    cache.insert(late)  # indexed on insert from now on
    assert cache.split_loss_keys(((1, 2, 2), (1, 2, 1))) == ([late, early], ())


def test_empty_and_unmet_digests():
    cache = EventCache(2)
    assert cache.split_loss_keys(()) == ([], ())
    assert cache.split_loss_keys(((0, 1, 1),)) == ([], ((0, 1, 1),))
    assert (cache.hits, cache.misses) == (0, 1)

"""``split_loss_keys``: one call per negative digest, differentially
equal to a per-entry scan of the cache contents.

Two caches of the same policy see the same operation stream; one serves
every digest through the batch lookup, which resolves loss keys through
the registry's publish log, the other through the per-entry reference,
which reads only the cached events' own tags.  After every step both must
return the same events (by identity, in entry order) and unmet entries,
keep the same hit/miss totals, and hold their contents in the same order
(which is where a missed LRU refresh shows).
"""

from __future__ import annotations

import random

import pytest

from repro.pubsub.cache import EventCache
from repro.pubsub.event import EventId, EventIdRegistry
from tests.conftest import publish_event


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
    registry = EventIdRegistry(6)
    next_seq = {}
    for _step in range(1500):
        if rng.random() < 0.45:
            source = rng.randrange(6)
            seq = next_seq[source] = next_seq.get(source, 0) + 1
            patterns = rng.sample(range(8), rng.randint(1, 3))
            event = publish_event(registry, source, seq, patterns)
            assert batch.insert(event) == loop.insert(event)
        elif registry.published:
            # A digest: real keys (hits or evicted), duplicates and
            # never-published sequence numbers, in random order.
            streams = sorted(
                (source, pattern, len(ids))
                for source, by_pattern in registry.published.items()
                for pattern, ids in by_pattern.items()
            )
            entries = []
            for _ in range(rng.randint(1, 10)):
                source, pattern, top = rng.choice(streams)
                entries.append((source, pattern, rng.randint(1, top + 2)))
            got = batch.split_loss_keys(tuple(entries), registry.published)
            want = _per_entry(loop, entries)
            assert [id(e) for e in got[0]] == [id(e) for e in want[0]]
            assert got[1] == want[1]
        assert _ids(batch) == _ids(loop)
        assert _stats(batch) == _stats(loop)
    assert batch.hits > 0 and batch.misses > 0


@pytest.mark.parametrize("policy", POLICIES)
def test_two_keys_of_one_event_return_it_twice(policy):
    batch, loop = _pair(policy, capacity=4)
    registry = EventIdRegistry(1)
    both = publish_event(registry, 0, 1, (3, 5))
    other = publish_event(registry, 0, 2, (3,))
    for cache in (batch, loop):
        cache.insert(both)
        cache.insert(other)
    entries = ((0, 3, 1), (9, 9, 9), (0, 5, 1), (0, 3, 2))
    found, unmet = batch.split_loss_keys(entries, registry.published)
    assert found == [both, both, other]
    assert found[0] is both and found[1] is both
    assert unmet == ((9, 9, 9),)
    assert (found, unmet) == _per_entry(loop, entries)
    assert (batch.hits, batch.misses) == (3, 1) == (loop.hits, loop.misses)
    assert _ids(batch) == _ids(loop)


def test_lru_order_after_a_batch():
    cache = EventCache(3, policy="lru")
    registry = EventIdRegistry(1)
    events = [publish_event(registry, 0, seq, (seq,)) for seq in (1, 2, 3)]
    for event in events:
        cache.insert(event)
    # Hits refresh in entry order: 1 then 2 move behind 3.
    cache.split_loss_keys(((0, 1, 1), (0, 7, 1), (0, 2, 1)), registry.published)
    assert _ids(cache) == [EventId(0, 3), EventId(0, 1), EventId(0, 2)]
    cache.insert(publish_event(registry, 0, 4, (4,)))  # evicts the least recent: 3
    assert not cache.contains(EventId(0, 3))


@pytest.mark.parametrize("policy", POLICIES)
def test_cache_keeps_nothing_per_loss_key(policy):
    """Inserts, evictions and digest lookups leave the cache holding its
    events and nothing per loss key: no container in it has a loss-key
    triple, or more entries than there are cached events."""
    cache, _ = _pair(policy, capacity=3)
    registry = EventIdRegistry(1)
    for seq in range(1, 10):
        cache.insert(publish_event(registry, 0, seq, (seq % 2, 2 + seq % 3)))
        cache.split_loss_keys(((0, seq % 2, 1), (0, 2, seq)), registry.published)
    assert cache.evictions == 6 and cache.hits > 0
    for name in type(cache).__slots__:
        value = getattr(cache, name)
        if isinstance(value, (dict, list, set)):
            assert len(value) <= len(cache), name
            assert not any(
                type(key) is tuple and len(key) == 3 for key in value
            ), name


def test_empty_and_unmet_digests():
    cache = EventCache(2)
    registry = EventIdRegistry(1)
    assert cache.split_loss_keys((), registry.published) == ([], ())
    assert cache.split_loss_keys(((0, 1, 1),), registry.published) == (
        [], ((0, 1, 1),)
    )
    assert (cache.hits, cache.misses) == (0, 1)
    # A known stream: sequence numbers outside 1..len(ids) are unmet.
    event = publish_event(registry, 0, 1, (1,))
    cache.insert(event)
    entries = ((0, 1, 0), (0, 1, 2), (0, 1, -1), (0, 2, 1), (0, 1, 1))
    assert cache.split_loss_keys(entries, registry.published) == (
        [event], entries[:4]
    )
    assert (cache.hits, cache.misses) == (1, 5)

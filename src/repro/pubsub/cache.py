"""The event buffer (the paper's β).

Section IV-A: *"Each dispatcher is equipped with a buffer where events are
stored, to satisfy retransmission requests.  The buffer has a size of β
elements.  In our simulations we adopted a simple FIFO buffering strategy
where each dispatcher caches only events for which it is either the
publisher or a subscriber."*

:class:`EventCache` is that buffer, keyed by
:class:`~repro.pubsub.event.EventId`.  Push digests carry event ids and
probe it directly; pull's negative digests carry loss keys ``(source,
pattern, pattern_seq)``, which the system-wide publish log
(:attr:`EventIdRegistry.published <repro.pubsub.event.EventIdRegistry>`)
turns into event ids, so the cache keeps nothing per loss key.

Eviction policies
-----------------
The paper uses plain FIFO but explicitly flags buffer management as an
optimization frontier ("we are currently investigating if and how some of
the published results [13] that enable a significant buffer optimization
are applicable in our context").  Besides the default ``"fifo"`` the cache
therefore supports:

* ``"lru"`` -- a lookup hit refreshes the entry's position, so events
  still being requested survive longer;
* ``"random"`` -- evict a uniformly random entry, the classic
  age-unbiased strategy from the bimodal-multicast literature.

``benchmarks/test_ablation_cache_policy.py`` compares the three.
"""

from __future__ import annotations

import random
from types import MappingProxyType
from typing import Dict, Iterable, Iterator, List, Optional, Tuple

from repro.pubsub.event import Event, EventId

__all__ = ["EventCache", "CACHE_POLICIES"]

LossKey = Tuple[int, int, int]  # (source, pattern, pattern_seq)

_NO_STREAMS = MappingProxyType({})  # an unknown source's streams

#: Supported eviction policies.
CACHE_POLICIES = ("fifo", "lru", "random")


class EventCache:
    """FIFO cache of β events, keyed by event id.

    >>> cache = EventCache(capacity=2)
    >>> from repro.pubsub.event import Event, EventId
    >>> e1 = Event(EventId(0, 1), (5,), {5: 1}, 0.0)
    >>> e2 = Event(EventId(0, 2), (5,), {5: 2}, 0.0)
    >>> e3 = Event(EventId(0, 3), (5,), {5: 3}, 0.0)
    >>> cache.insert(e1); cache.insert(e2); cache.insert(e3)
    True
    True
    True
    >>> cache.get(e1.event_id) is None  # evicted FIFO
    True
    >>> cache.get(e3.event_id) is e3
    True
    """

    __slots__ = ("capacity", "policy", "_is_random", "_is_lru", "_rng",
                 "_id_list", "_id_pos", "_events", "_by_pattern",
                 "_pattern_index_active", "insertions", "evictions", "hits",
                 "misses")

    def __init__(
        self,
        capacity: int,
        policy: str = "fifo",
        rng: Optional[random.Random] = None,
    ) -> None:
        if capacity < 0:
            raise ValueError(f"cache capacity must be >= 0, got {capacity}")
        if policy not in CACHE_POLICIES:
            raise ValueError(
                f"unknown cache policy {policy!r}; choose from {CACHE_POLICIES}"
            )
        if policy == "random" and rng is None:
            raise ValueError("the 'random' policy needs an rng")
        self.capacity = capacity
        self.policy = policy
        # Policy flags hoisted out of the per-event hot path.
        self._is_random = policy == "random"
        self._is_lru = policy == "lru"
        self._rng = rng
        # O(1) uniform victim selection for the random policy.
        self._id_list: List[EventId] = []
        self._id_pos: Dict[EventId, int] = {}
        # Plain dicts keep insertion order (guaranteed since 3.7) and beat
        # OrderedDict on every hot operation; FIFO eviction pops
        # ``next(iter(...))`` and LRU refreshes via pop + reinsert.
        self._events: Dict[EventId, Event] = {}
        # The per-pattern index serves push digests only, so it is built
        # lazily: until first use it is skipped entirely in insert/evict;
        # activation rebuilds it from ``_events`` (whose insertion order it
        # inherits) and maintains it from then on.
        self._by_pattern: Dict[int, Dict[EventId, Event]] = {}
        self._pattern_index_active = False
        self.insertions = 0
        self.evictions = 0
        self.hits = 0
        self.misses = 0

    # ------------------------------------------------------------------
    def insert(self, event: Event) -> bool:
        """Add an event, evicting the oldest entry if at capacity.

        Re-inserting an already cached event is a no-op that does *not*
        refresh its FIFO position (the paper's strategy is plain FIFO, not
        LRU).  Returns ``True`` if the event is cached after the call.
        """
        capacity = self.capacity
        if capacity == 0:
            return False
        events = self._events
        event_id = event.event_id
        if event_id in events:
            return True
        if len(events) >= capacity:
            self._evict_one()
        events[event_id] = event
        if self._is_random:
            self._id_pos[event_id] = len(self._id_list)
            self._id_list.append(event_id)
        if self._pattern_index_active:
            by_pattern = self._by_pattern
            for pattern in event.pattern_seqs:
                bucket = by_pattern.get(pattern)
                if bucket is None:
                    bucket = {}
                    by_pattern[pattern] = bucket
                bucket[event_id] = event
        self.insertions += 1
        return True

    def _evict_one(self) -> None:
        if self._is_random:
            victim_index = self._rng.randrange(len(self._id_list))
            event_id = self._id_list[victim_index]
            last_id = self._id_list[-1]
            self._id_list[victim_index] = last_id
            self._id_pos[last_id] = victim_index
            self._id_list.pop()
            del self._id_pos[event_id]
            event = self._events.pop(event_id)
        else:
            # fifo and lru both evict the head; lru differs by refreshing
            # positions on hits (see get/split_loss_keys).
            events = self._events
            event_id = next(iter(events))
            event = events.pop(event_id)
        if self._pattern_index_active:
            by_pattern = self._by_pattern
            for pattern in event.pattern_seqs:
                bucket = by_pattern.get(pattern)
                if bucket is not None:
                    bucket.pop(event_id, None)
                    if not bucket:
                        del by_pattern[pattern]
        self.evictions += 1

    # ------------------------------------------------------------------
    def _activate_pattern_index(self) -> None:
        by_pattern = self._by_pattern
        for event_id, event in self._events.items():
            for pattern in event.pattern_seqs:
                bucket = by_pattern.get(pattern)
                if bucket is None:
                    bucket = {}
                    by_pattern[pattern] = bucket
                bucket[event_id] = event
        self._pattern_index_active = True

    # ------------------------------------------------------------------
    def get(self, event_id: EventId) -> Optional[Event]:
        """Lookup by event id (push-style positive digest entries)."""
        events = self._events
        event = events.get(event_id)
        if event is None:
            self.misses += 1
        else:
            self.hits += 1
            if self._is_lru:
                # Pop + reinsert moves the entry to the back of the order.
                del events[event_id]
                events[event_id] = event
        return event

    def split_loss_keys(
        self,
        entries: Iterable[LossKey],
        published: Dict[int, Dict[int, List[EventId]]],
    ) -> Tuple[List[Event], Tuple[LossKey, ...]]:
        """Look up a whole negative digest in one call: the cached events
        in entry order (once per entry met) and the tuple of unmet
        entries.  Each entry met is a hit (and refreshes it under LRU),
        each unmet one a miss.  ``published`` is the system's publish log
        (``EventIdRegistry.published``): entry ``(source, pattern, seq)``
        is met iff ``published[source][pattern][seq - 1]`` is cached."""
        events = self._events
        found: List[Event] = []
        unmet: List[LossKey] = []
        for entry in entries:
            source, pattern, seq = entry
            ids = published.get(source, _NO_STREAMS).get(pattern, ())
            event = events.get(ids[seq - 1]) if 0 < seq <= len(ids) else None
            if event is None:
                unmet.append(entry)
            else:
                found.append(event)
                if self._is_lru:  # refresh: back of the order
                    del events[event.event_id]
                    events[event.event_id] = event
        self.hits += len(found)
        self.misses += len(unmet)
        return found, tuple(unmet)

    def contains(self, event_id: EventId) -> bool:
        return event_id in self._events

    def matching_ids(self, pattern: int) -> List[EventId]:
        """Ids of cached events matching ``pattern``, oldest first.

        Used by the push algorithm to build its positive digest.
        """
        if not self._pattern_index_active:
            self._activate_pattern_index()
        bucket = self._by_pattern.get(pattern)
        return list(bucket) if bucket else []

    # ------------------------------------------------------------------
    def clear(self) -> None:
        """Drop every cached event and all index state.

        Crash-recovery semantics: the buffer is volatile memory, so a
        restarted dispatcher comes back with an empty cache.  The lazy
        index's activation flag is reset too -- the next lookup rebuilds
        from the (empty) store.  Cumulative statistics survive; the wipe
        is not an eviction.
        """
        self._events.clear()
        self._id_list.clear()
        self._id_pos.clear()
        self._by_pattern.clear()
        self._pattern_index_active = False

    def __len__(self) -> int:
        return len(self._events)

    def __iter__(self) -> Iterator[Event]:
        return iter(self._events.values())

    def __repr__(self) -> str:  # pragma: no cover - debug aid
        return (
            f"<EventCache {len(self._events)}/{self.capacity} "
            f"evictions={self.evictions}>"
        )

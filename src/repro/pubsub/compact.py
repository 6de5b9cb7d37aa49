"""Columnar FIFO event cache for large-scale runs.

:class:`CompactEventCache` is a drop-in replacement for the FIFO
configuration of :class:`repro.pubsub.cache.EventCache` that stores the
buffer as a ring of parallel columns instead of per-entry dict machinery:

* ``_ids`` -- ``array('q')`` of packed event identities
  ``(source << 32) | seq``;
* ``_events`` -- plain list holding the :class:`Event` objects;
* ``_loss_keys`` -- ``array('q')`` of packed loss-detection triples
  ``(source << 44) | (pattern << 30) | seq``, ``_LOSS_SLOTS`` slots per
  entry (the paper caps event contents at 3 patterns, footnote 5).

At the paper's β (tens to hundreds of entries) lookups are C-speed
``array.index`` scans -- no per-entry hash tables at all -- so a node's
whole buffer costs ``β * (8 + 8 + 3*8)`` bytes plus the shared event
objects, against several KB of dict overhead for the classic layout.
This is what makes 10⁵-node topologies fit in memory
(docs/PERFORMANCE.md, "Compact state & scaling").

Semantics match the classic FIFO cache exactly -- same eviction order,
same duplicate-insert no-op, same hit/miss accounting -- which
``tests/pubsub/test_compact_cache.py`` proves differentially and the
frozen-digest grid proves end to end.  The ``lru``/``random`` ablation
policies stay classic-only: they are studied at paper scale where the
dict layout is not a bottleneck.
"""

from __future__ import annotations

from array import array
from typing import Iterable, Iterator, List, Optional, Tuple

from repro.pubsub.event import Event, EventId

__all__ = ["CompactEventCache"]

# Packed-key layouts.  'q' is a signed 64-bit array: ids use
# source < 2^31, seq < 2^32; loss keys use source < 2^19, pattern < 2^14,
# per-pattern seq < 2^30 -- orders of magnitude above any simulated
# workload (sources are node ids, Π is in the hundreds).
_ID_SEQ_BITS = 32
_LK_SOURCE_SHIFT = 44
_LK_PATTERN_SHIFT = 30
#: Loss-key slots per entry: events contain at most 3 patterns
#: (paper footnote 5; ``PatternSpace.sample_event_patterns``).
_LOSS_SLOTS = 3
_EMPTY = -1


class CompactEventCache:
    """FIFO-only columnar event buffer (see module docstring).

    The constructor signature mirrors :class:`EventCache` so the
    dispatcher can build either from the same arguments; non-FIFO
    policies are rejected.
    """

    __slots__ = ("capacity", "policy", "_ids", "_events", "_loss_keys",
                 "_head", "_size",
                 "insertions", "evictions", "hits", "misses")

    def __init__(self, capacity: int, policy: str = "fifo", rng=None) -> None:
        if capacity < 0:
            raise ValueError(f"cache capacity must be >= 0, got {capacity}")
        if policy != "fifo":
            raise ValueError(
                f"CompactEventCache is FIFO-only, got policy {policy!r}; "
                "use the classic EventCache for lru/random"
            )
        self.capacity = capacity
        self.policy = policy
        self._ids = _new_column(capacity)
        self._events: List[Optional[Event]] = [None] * capacity
        self._loss_keys = _new_column(capacity * _LOSS_SLOTS)
        #: next ring slot to write; equals the oldest entry once full.
        self._head = 0
        self._size = 0
        self.insertions = 0
        self.evictions = 0
        self.hits = 0
        self.misses = 0

    # ------------------------------------------------------------------
    def insert(self, event: Event) -> bool:
        """Add an event, overwriting the oldest ring slot if full.

        Duplicate inserts are no-ops that do not refresh FIFO position,
        exactly like the classic cache.  Returns ``True`` if the event is
        cached after the call.
        """
        capacity = self.capacity
        if capacity == 0:
            return False
        event_id = event.event_id
        packed = event_id.source << _ID_SEQ_BITS | event_id.seq
        ids = self._ids
        if self._size and packed in ids:
            return True
        head = self._head
        if self._size == capacity:
            self.evictions += 1
        else:
            self._size += 1
        ids[head] = packed
        self._events[head] = event
        loss_keys = self._loss_keys
        slot = head * _LOSS_SLOTS
        source_part = event_id.source << _LK_SOURCE_SHIFT
        pattern_seqs = event.pattern_seqs
        if len(pattern_seqs) > _LOSS_SLOTS:
            raise ValueError(
                f"event contains {len(pattern_seqs)} patterns; the compact "
                f"cache packs at most {_LOSS_SLOTS} (paper footnote 5)"
            )
        for pattern, seq in pattern_seqs.items():
            loss_keys[slot] = source_part | pattern << _LK_PATTERN_SHIFT | seq
            slot += 1
        for slot in range(slot, (head + 1) * _LOSS_SLOTS):
            loss_keys[slot] = _EMPTY
        self._head = (head + 1) % capacity
        self.insertions += 1
        return True

    # ------------------------------------------------------------------
    def get(self, event_id: EventId) -> Optional[Event]:
        """Lookup by event id (push-style positive digest entries)."""
        packed = event_id.source << _ID_SEQ_BITS | event_id.seq
        try:
            index = self._ids.index(packed)
        except ValueError:
            self.misses += 1
            return None
        self.hits += 1
        return self._events[index]

    def get_by_loss_key(
        self, source: int, pattern: int, pattern_seq: int
    ) -> Optional[Event]:
        """Lookup by loss-detection triple (pull-style digest entries)."""
        packed = (
            source << _LK_SOURCE_SHIFT
            | pattern << _LK_PATTERN_SHIFT
            | pattern_seq
        )
        try:
            index = self._loss_keys.index(packed)
        except ValueError:
            self.misses += 1
            return None
        self.hits += 1
        return self._events[index // _LOSS_SLOTS]

    def split_loss_keys(
        self, entries: Iterable[Tuple[int, int, int]]
    ) -> Tuple[List[Event], Tuple[Tuple[int, int, int], ...]]:
        """:meth:`get_by_loss_key` over a whole negative digest in one call:
        the cached events in entry order and the tuple of unmet entries."""
        loss_keys = self._loss_keys
        found: List[Event] = []
        unmet: List[Tuple[int, int, int]] = []
        for entry in entries:
            source, pattern, pattern_seq = entry
            packed = (
                source << _LK_SOURCE_SHIFT | pattern << _LK_PATTERN_SHIFT | pattern_seq
            )
            # Most entries miss: a membership scan beats a raised ValueError.
            if packed in loss_keys:
                found.append(self._events[loss_keys.index(packed) // _LOSS_SLOTS])
            else:
                unmet.append(entry)
        self.hits += len(found)
        self.misses += len(unmet)
        return found, tuple(unmet)

    def contains(self, event_id: EventId) -> bool:
        return (
            self._size > 0
            and (event_id.source << _ID_SEQ_BITS | event_id.seq) in self._ids
        )

    # ------------------------------------------------------------------
    def _ordered_indices(self) -> Iterator[int]:
        """Ring slots oldest first."""
        capacity = self.capacity
        size = self._size
        start = self._head if size == capacity else 0
        for offset in range(size):
            yield (start + offset) % capacity

    def matching(self, pattern: int) -> List[Event]:
        """All cached events matching ``pattern``, oldest first."""
        return [
            event
            for index in self._ordered_indices()
            if pattern in (event := self._events[index]).pattern_seqs
        ]

    def matching_ids(self, pattern: int) -> List[EventId]:
        """Ids of cached events matching ``pattern``, oldest first."""
        return [event.event_id for event in self.matching(pattern)]

    # ------------------------------------------------------------------
    def clear(self) -> None:
        """Drop every cached event (crash recovery: the buffer is
        volatile).  Cumulative statistics survive; the wipe is not an
        eviction."""
        capacity = self.capacity
        self._ids = _new_column(capacity)
        self._events = [None] * capacity
        self._loss_keys = _new_column(capacity * _LOSS_SLOTS)
        self._head = 0
        self._size = 0

    def __len__(self) -> int:
        return self._size

    def __iter__(self) -> Iterator[Event]:
        events = self._events
        return (events[index] for index in self._ordered_indices())

    def oldest(self) -> Optional[Event]:
        if not self._size:
            return None
        return self._events[next(self._ordered_indices())]

    def __repr__(self) -> str:  # pragma: no cover - debug aid
        return (
            f"<CompactEventCache {self._size}/{self.capacity} "
            f"evictions={self.evictions}>"
        )


def _new_column(size: int) -> "array[int]":
    return array("q", [_EMPTY]) * size if size else array("q")

"""Sequence-number loss detection and the ``Lost`` buffer.

Section III-B: *"Whenever a dispatcher receives an event matching a pattern
p, but for which the sequence number associated to p in the event identifier
is greater than the one expected for that pattern and source, it can detect
the loss of an event"*.

:class:`LossDetector` tracks, per ``(source, pattern)`` stream the
dispatcher locally subscribes to, the highest sequence number seen.
Detected losses live in the ``Lost`` buffer until the event is recovered
(any arrival -- normal or out-of-band -- satisfies them), the buffer
overflows (oldest entries are abandoned), or they exceed an optional age
limit.  A sequence number at or below its stream's highest is missing
exactly while it is in the buffer, so the buffer is the only record of
pending losses.

The gossip rounds read the buffer one pattern (subscriber-based pull) or
one source (publisher-based pull) at a time, so it is held as two
indexes of the same entries: one insertion-ordered bucket per pattern and
one per source, each deleted when it empties.
"""

from __future__ import annotations

from itertools import islice
from typing import Dict, List, Optional, Tuple

from repro.pubsub.event import Event

__all__ = ["LostKey", "LossDetector"]

LostKey = Tuple[int, int, int]  # (source, pattern, pattern_seq)

# Interned integer keys: the tracking dicts key on packed ints instead of
# tuples, so the per-arrival hot path hashes one machine int rather than
# allocating and hashing a tuple.  Streams pack as (source << 20) | pattern;
# a pattern bucket keys its entries as (source << 32) | seq and a source
# bucket as (pattern << 32) | seq.  The bounds (pattern < 2^20,
# seq < 2^32) hold for any simulated workload by orders of magnitude (Π is
# in the hundreds, sequence numbers are publishes per (source, pattern)
# within one run).
_PATTERN_BITS = 20
_SEQ_BITS = 32
_SEQ_MASK = (1 << _SEQ_BITS) - 1


class LossDetector:
    """Detect and book-keep lost events for one dispatcher.

    Parameters
    ----------
    capacity:
        Maximum number of entries in the ``Lost`` buffer; when exceeded the
        oldest entries are dropped ("abandoned").  ``None`` = unbounded.
    give_up_age:
        Entries older than this (in simulated seconds) are pruned lazily at
        query time.  ``None`` = never.
    """

    __slots__ = ("capacity", "give_up_age", "_streams", "_by_pattern",
                 "_by_source", "_resync", "detected", "recovered", "abandoned")

    def __init__(
        self,
        capacity: Optional[int] = None,
        give_up_age: Optional[float] = None,
    ) -> None:
        if capacity is not None and capacity <= 0:
            raise ValueError(f"Lost capacity must be positive, got {capacity}")
        self.capacity = capacity
        self.give_up_age = give_up_age
        # Stream key -> highest sequence number seen.
        self._streams: Dict[int, int] = {}
        # The Lost buffer.  A pattern bucket maps (source, seq) to the
        # entry's detection ordinal -- the global FIFO position that
        # ``capacity`` evicts by -- and a source bucket maps (pattern, seq)
        # to its detection time, which ``give_up_age`` prunes by.
        self._by_pattern: Dict[int, Dict[int, int]] = {}
        self._by_source: Dict[int, Dict[int, float]] = {}
        # After ``reset(resync=True)`` the first arrival of each stream
        # rebaselines it instead of declaring every earlier sequence lost.
        self._resync = False
        # Statistics.
        self.detected = 0
        self.recovered = 0
        self.abandoned = 0

    def reset(self, resync: bool = False) -> None:
        """Wipe all tracking state (crash-recovery: volatile memory is gone).

        Cumulative statistics survive -- they describe the whole run, not
        the buffer contents.  With ``resync=True`` (the crash-recovery
        semantics) the first post-reset arrival of each (source, pattern)
        stream becomes its new reference point: a restarted node cannot
        know which sequence numbers it missed while down, so it does not
        flood the Lost buffer with the entire history of every stream.
        """
        self._streams.clear()
        self._by_pattern.clear()
        self._by_source.clear()
        self._resync = resync

    # ------------------------------------------------------------------
    def observe(self, event: Event, local_patterns, now: float) -> List[LostKey]:
        """Process one received event (normal or recovered).

        ``local_patterns`` is a container supporting ``in`` with the
        patterns this dispatcher locally subscribes to: gaps are only
        detectable (and only relevant) on locally subscribed streams.
        Returns the newly detected losses.
        """
        new_losses: List[LostKey] = []
        source = event.event_id.source
        source_key = source << _PATTERN_BITS
        streams = self._streams
        for pattern, seq in event.pattern_seqs.items():
            if pattern not in local_patterns:
                continue
            stream_key = source_key | pattern
            max_seen = streams.get(stream_key)
            if max_seen is None:
                # A resynced stream accepts its first arrival as in-order
                # and only detects gaps from there on.
                max_seen = seq - 1 if self._resync else 0
            if seq == max_seen + 1:
                # Fast path: the in-order arrival every reliable hop takes.
                streams[stream_key] = seq
            elif seq > max_seen:
                streams[stream_key] = seq
                by_pattern = self._by_pattern
                pattern_bucket = by_pattern.get(pattern)
                if pattern_bucket is None:
                    pattern_bucket = by_pattern[pattern] = {}
                by_source = self._by_source
                source_bucket = by_source.get(source)
                if source_bucket is None:
                    source_bucket = by_source[source] = {}
                in_pattern = source << _SEQ_BITS
                in_source = pattern << _SEQ_BITS
                detected = self.detected
                for missing in range(max_seen + 1, seq):
                    detected += 1
                    pattern_bucket[in_pattern | missing] = detected
                    source_bucket[in_source | missing] = now
                    new_losses.append((source, pattern, missing))
                self.detected = detected
                self._enforce_capacity()
            elif (source << _SEQ_BITS | seq) in self._by_pattern.get(pattern, ()):
                self._drop(source, pattern, seq)
                self.recovered += 1
            # else: duplicate or abandoned arrival -- nothing to do.
        return new_losses

    def _drop(self, source: int, pattern: int, seq: int) -> None:
        """Remove one entry from both indexes, and any bucket it empties."""
        pattern_bucket = self._by_pattern[pattern]
        del pattern_bucket[source << _SEQ_BITS | seq]
        if not pattern_bucket:
            del self._by_pattern[pattern]
        source_bucket = self._by_source[source]
        del source_bucket[pattern << _SEQ_BITS | seq]
        if not source_bucket:
            del self._by_source[source]

    def _enforce_capacity(self) -> None:
        if self.capacity is None:
            return
        by_pattern = self._by_pattern
        for _ in range(self.pending() - self.capacity):
            # The oldest entry heads the bucket whose head ordinal is least.
            pattern = min(
                by_pattern, key=lambda p: next(iter(by_pattern[p].values()))
            )
            key = next(iter(by_pattern[pattern]))
            self._drop(key >> _SEQ_BITS, pattern, key & _SEQ_MASK)
            self.abandoned += 1

    def _prune_aged(self, now: float) -> None:
        if self.give_up_age is None:
            return
        cutoff = now - self.give_up_age
        # Entries are inserted at detection time and the clock never goes
        # backwards, so each source bucket is ordered by detection time:
        # its expired entries are a prefix.
        for source, bucket in list(self._by_source.items()):
            expired = []
            for key, detected_at in bucket.items():
                if detected_at >= cutoff:
                    break
                expired.append(key)
            for key in expired:
                self._drop(source, key >> _SEQ_BITS, key & _SEQ_MASK)
            self.abandoned += len(expired)

    # ------------------------------------------------------------------
    # Queries used by the gossip rounds
    # ------------------------------------------------------------------
    def has_losses(self, now: float = float("inf")) -> bool:
        self._prune_aged(now)
        return bool(self._by_pattern)

    def pending(self) -> int:
        return sum(map(len, self._by_pattern.values()))

    def patterns_with_losses(self, now: float = float("inf")) -> List[int]:
        """Sorted patterns with at least one pending loss."""
        self._prune_aged(now)
        return sorted(self._by_pattern)

    def sources_with_losses(self, now: float = float("inf")) -> List[int]:
        """Sorted sources with at least one pending loss."""
        self._prune_aged(now)
        return sorted(self._by_source)

    def entries_for_pattern(self, pattern: int, limit: Optional[int] = None) -> List[LostKey]:
        """Oldest-first loss keys for ``pattern`` (subscriber-based pull)."""
        return [
            (key >> _SEQ_BITS, pattern, key & _SEQ_MASK)
            for key in islice(self._by_pattern.get(pattern, ()), limit)
        ]

    def entries_for_source(self, source: int, limit: Optional[int] = None) -> List[LostKey]:
        """Oldest-first loss keys for ``source`` (publisher-based pull)."""
        return [
            (source, key >> _SEQ_BITS, key & _SEQ_MASK)
            for key in islice(self._by_source.get(source, ()), limit)
        ]

    def is_pending(self, source: int, pattern: int, seq: int) -> bool:
        return (source << _SEQ_BITS | seq) in self._by_pattern.get(pattern, ())

    def __len__(self) -> int:
        return self.pending()

    def __repr__(self) -> str:  # pragma: no cover - debug aid
        return (
            f"<LossDetector pending={self.pending()} detected={self.detected} "
            f"recovered={self.recovered} abandoned={self.abandoned}>"
        )

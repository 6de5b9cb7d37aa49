"""Sequence-number loss detection and the ``Lost`` buffer.

Section III-B: *"Whenever a dispatcher receives an event matching a pattern
p, but for which the sequence number associated to p in the event identifier
is greater than the one expected for that pattern and source, it can detect
the loss of an event"*.

:class:`LossDetector` tracks, per ``(source, pattern)`` stream the
dispatcher locally subscribes to, the highest sequence number seen and the
set of missing ones.  Detected losses live in the ``Lost`` buffer until
the event is recovered (any arrival -- normal or out-of-band -- satisfies
them), the buffer overflows (oldest entries are abandoned), or they exceed
an optional age limit.
"""

from __future__ import annotations

from collections import OrderedDict
from typing import Dict, List, Optional, Set, Tuple

from repro.pubsub.event import Event

__all__ = ["LostEntry", "LossDetector"]

LostKey = Tuple[int, int, int]  # (source, pattern, pattern_seq)

# Interned integer keys: the tracking dicts key on packed ints instead of
# tuples, so the per-arrival hot path hashes one machine int rather than
# allocating and hashing a tuple.  Streams pack as (source << 20) | pattern
# and lost entries additionally shift the per-pattern sequence number in;
# the bounds (pattern < 2^20, seq < 2^32) hold for any simulated workload
# by orders of magnitude (Π is in the hundreds, sequence numbers are
# publishes per (source, pattern) within one run).
_PATTERN_BITS = 20
_SEQ_BITS = 32


class LostEntry:
    """One detected loss, with its detection time (for ageing policies)."""

    __slots__ = ("source", "pattern", "seq", "detected_at")

    def __init__(self, source: int, pattern: int, seq: int, detected_at: float) -> None:
        self.source = source
        self.pattern = pattern
        self.seq = seq
        self.detected_at = detected_at

    def __repr__(self) -> str:  # pragma: no cover - debug aid
        return f"LostEntry(src={self.source}, p={self.pattern}, seq={self.seq})"


class _StreamState:
    """Per-(source, pattern) tracking state.

    ``missing`` is lazily allocated (and freed again when it empties):
    streams with no pending gap are by far the common case -- at scale
    every received event creates a stream, so an eagerly-allocated empty
    set (216 B) per stream would dominate the loss detector's footprint
    (measured ~117 MB of empty sets in a 30k-node probe).
    """

    __slots__ = ("max_seen", "missing")

    def __init__(self) -> None:
        self.max_seen = 0
        self.missing: Optional[Set[int]] = None


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

    __slots__ = ("capacity", "give_up_age", "_streams", "_lost",
                 "_pattern_counts", "_source_counts", "_resync",
                 "detected", "recovered", "abandoned")

    def __init__(
        self,
        capacity: Optional[int] = None,
        give_up_age: Optional[float] = None,
    ) -> None:
        if capacity is not None and capacity <= 0:
            raise ValueError(f"Lost capacity must be positive, got {capacity}")
        self.capacity = capacity
        self.give_up_age = give_up_age
        self._streams: Dict[int, _StreamState] = {}
        self._lost: "OrderedDict[int, LostEntry]" = OrderedDict()
        # Incremental per-pattern / per-source pending counts, so the gossip
        # rounds' ``patterns_with_losses`` / ``sources_with_losses`` queries
        # do not rescan the whole Lost buffer every round.
        self._pattern_counts: Dict[int, int] = {}
        self._source_counts: Dict[int, int] = {}
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
        self._lost.clear()
        self._pattern_counts.clear()
        self._source_counts.clear()
        self._resync = resync

    # ------------------------------------------------------------------
    def observe(self, event: Event, local_patterns, now: float) -> List[LostEntry]:
        """Process one received event (normal or recovered).

        ``local_patterns`` is a container supporting ``in`` with the
        patterns this dispatcher locally subscribes to: gaps are only
        detectable (and only relevant) on locally subscribed streams.
        Returns the newly detected losses.
        """
        new_losses: List[LostEntry] = []
        source = event.event_id.source
        source_key = source << _PATTERN_BITS
        streams = self._streams
        lost = self._lost
        for pattern, seq in event.pattern_seqs.items():
            if pattern not in local_patterns:
                continue
            stream_key = source_key | pattern
            state = streams.get(stream_key)
            if state is None:
                state = _StreamState()
                if self._resync:
                    # Rebaseline: accept this arrival as in-order and only
                    # detect gaps from here on.
                    state.max_seen = seq - 1
                streams[stream_key] = state
            missing = state.missing
            max_seen = state.max_seen
            if seq == max_seen + 1:
                # Fast path: the in-order arrival every reliable hop takes.
                state.max_seen = seq
            elif missing is not None and seq in missing:
                missing.discard(seq)
                if not missing:
                    state.missing = None
                entry = lost.pop(stream_key << _SEQ_BITS | seq, None)
                if entry is not None:
                    self.recovered += 1
                    self._deindex(entry)
            elif seq > max_seen:
                if missing is None:
                    missing = state.missing = set()
                pattern_counts = self._pattern_counts
                source_counts = self._source_counts
                lost_key_base = stream_key << _SEQ_BITS
                for missing_seq in range(max_seen + 1, seq):
                    missing.add(missing_seq)
                    entry = LostEntry(source, pattern, missing_seq, now)
                    lost[lost_key_base | missing_seq] = entry
                    new_losses.append(entry)
                    self.detected += 1
                    pattern_counts[pattern] = pattern_counts.get(pattern, 0) + 1
                    source_counts[source] = source_counts.get(source, 0) + 1
                state.max_seen = seq
                self._enforce_capacity()
            # else: duplicate or already-accounted arrival -- nothing to do.
        return new_losses

    def _enforce_capacity(self) -> None:
        if self.capacity is None:
            return
        while len(self._lost) > self.capacity:
            _key, entry = self._lost.popitem(last=False)
            self._forget(entry)
            self.abandoned += 1

    def _forget(self, entry: LostEntry) -> None:
        state = self._streams.get(entry.source << _PATTERN_BITS | entry.pattern)
        if state is not None and state.missing is not None:
            state.missing.discard(entry.seq)
            if not state.missing:
                state.missing = None
        self._deindex(entry)

    def _deindex(self, entry: LostEntry) -> None:
        """Drop one entry's contribution to the per-pattern/source counts."""
        pattern_counts = self._pattern_counts
        remaining = pattern_counts[entry.pattern] - 1
        if remaining:
            pattern_counts[entry.pattern] = remaining
        else:
            del pattern_counts[entry.pattern]
        source_counts = self._source_counts
        remaining = source_counts[entry.source] - 1
        if remaining:
            source_counts[entry.source] = remaining
        else:
            del source_counts[entry.source]

    def _prune_aged(self, now: float) -> None:
        if self.give_up_age is None:
            return
        cutoff = now - self.give_up_age
        lost = self._lost
        # Entries are inserted at detection time and the clock never goes
        # backwards, so ``_lost`` is ordered by ``detected_at``: pruning
        # stops at the first fresh entry instead of scanning the buffer.
        while lost:
            entry = next(iter(lost.values()))
            if entry.detected_at >= cutoff:
                break
            del lost[
                (entry.source << _PATTERN_BITS | entry.pattern) << _SEQ_BITS
                | entry.seq
            ]
            self._forget(entry)
            self.abandoned += 1

    # ------------------------------------------------------------------
    # Queries used by the gossip rounds
    # ------------------------------------------------------------------
    def has_losses(self, now: float = float("inf")) -> bool:
        self._prune_aged(now)
        return bool(self._lost)

    def pending(self) -> int:
        return len(self._lost)

    def patterns_with_losses(self, now: float = float("inf")) -> List[int]:
        """Sorted patterns with at least one pending loss."""
        self._prune_aged(now)
        return sorted(self._pattern_counts)

    def sources_with_losses(self, now: float = float("inf")) -> List[int]:
        """Sorted sources with at least one pending loss."""
        self._prune_aged(now)
        return sorted(self._source_counts)

    def entries_for_pattern(self, pattern: int, limit: Optional[int] = None) -> List[LostKey]:
        """Oldest-first loss keys for ``pattern`` (subscriber-based pull)."""
        keys = [
            (entry.source, pattern, entry.seq)
            for entry in self._lost.values() if entry.pattern == pattern
        ]
        return keys if limit is None else keys[:limit]

    def entries_for_source(self, source: int, limit: Optional[int] = None) -> List[LostKey]:
        """Oldest-first loss keys for ``source`` (publisher-based pull)."""
        keys = [
            (source, entry.pattern, entry.seq)
            for entry in self._lost.values() if entry.source == source
        ]
        return keys if limit is None else keys[:limit]

    def is_pending(self, source: int, pattern: int, seq: int) -> bool:
        return (
            (source << _PATTERN_BITS | pattern) << _SEQ_BITS | seq
        ) in self._lost

    def __len__(self) -> int:
        return len(self._lost)

    def __repr__(self) -> str:  # pragma: no cover - debug aid
        return (
            f"<LossDetector pending={len(self._lost)} detected={self.detected} "
            f"recovered={self.recovered} abandoned={self.abandoned}>"
        )

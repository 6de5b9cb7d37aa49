"""Tests for sequence-number loss detection and the Lost buffer."""

from __future__ import annotations

from collections import OrderedDict
from typing import Dict, List, Optional, Set

import pytest
from hypothesis import given, settings, strategies as st

from repro.pubsub.event import Event
from repro.recovery.loss_detector import LossDetector, LostKey
from tests.conftest import make_event


LOCAL_PATTERNS = frozenset({3, 8})


def ev(source, pattern, seq):
    return make_event(
        source=source,
        seq=seq,
        patterns=(pattern,),
        pattern_seqs={pattern: seq},
    )


class TestDetection:
    def test_in_order_stream_detects_nothing(self):
        detector = LossDetector()
        for seq in range(1, 6):
            assert detector.observe(ev(0, 3, seq), LOCAL_PATTERNS, 0.0) == []
        assert detector.detected == 0
        assert not detector.has_losses()

    def test_gap_detected_exactly(self):
        detector = LossDetector()
        detector.observe(ev(0, 3, 1), LOCAL_PATTERNS, 0.0)
        new = detector.observe(ev(0, 3, 4), LOCAL_PATTERNS, 1.0)
        assert new == [(0, 3, 2), (0, 3, 3)]
        assert detector.detected == 2
        assert detector.is_pending(0, 3, 2)
        assert detector.is_pending(0, 3, 3)

    def test_first_event_with_high_seq_reveals_prefix_losses(self):
        detector = LossDetector()
        new = detector.observe(ev(0, 3, 3), LOCAL_PATTERNS, 0.0)
        assert [seq for _, _, seq in new] == [1, 2]

    def test_non_local_patterns_ignored(self):
        detector = LossDetector()
        new = detector.observe(ev(0, 5, 4), LOCAL_PATTERNS, 0.0)
        assert new == []
        assert not detector.has_losses()

    def test_multi_pattern_event_tracks_each_local_stream(self):
        detector = LossDetector()
        event = make_event(
            source=0, seq=1, patterns=(3, 8), pattern_seqs={3: 2, 8: 3}
        )
        new = detector.observe(event, LOCAL_PATTERNS, 0.0)
        assert {(pattern, seq) for _, pattern, seq in new} == {(3, 1), (8, 1), (8, 2)}

    def test_streams_are_per_source(self):
        detector = LossDetector()
        detector.observe(ev(0, 3, 2), LOCAL_PATTERNS, 0.0)
        new = detector.observe(ev(1, 3, 1), LOCAL_PATTERNS, 0.0)
        assert new == []

    def test_duplicate_arrival_is_noop(self):
        detector = LossDetector()
        detector.observe(ev(0, 3, 2), LOCAL_PATTERNS, 0.0)
        before = detector.pending()
        detector.observe(ev(0, 3, 2), LOCAL_PATTERNS, 0.0)
        assert detector.pending() == before


class TestRecovery:
    def test_arrival_of_missing_seq_clears_entry(self):
        detector = LossDetector()
        detector.observe(ev(0, 3, 1), LOCAL_PATTERNS, 0.0)
        detector.observe(ev(0, 3, 4), LOCAL_PATTERNS, 0.0)
        detector.observe(ev(0, 3, 2), LOCAL_PATTERNS, 1.0)
        assert not detector.is_pending(0, 3, 2)
        assert detector.is_pending(0, 3, 3)
        assert detector.recovered == 1

    def test_full_recovery_empties_buffer(self):
        detector = LossDetector()
        detector.observe(ev(0, 3, 5), LOCAL_PATTERNS, 0.0)
        for seq in (1, 2, 3, 4):
            detector.observe(ev(0, 3, seq), LOCAL_PATTERNS, 1.0)
        assert not detector.has_losses()
        assert detector.recovered == 4


class TestQueries:
    def test_entries_grouped_by_pattern_and_source(self):
        detector = LossDetector()
        detector.observe(ev(0, 3, 3), LOCAL_PATTERNS, 0.0)
        detector.observe(ev(1, 8, 2), LOCAL_PATTERNS, 0.0)
        assert detector.patterns_with_losses() == [3, 8]
        assert detector.sources_with_losses() == [0, 1]
        assert detector.entries_for_pattern(3) == [(0, 3, 1), (0, 3, 2)]
        assert detector.entries_for_source(1) == [(1, 8, 1)]

    def test_entries_limit(self):
        detector = LossDetector()
        detector.observe(ev(0, 3, 10), LOCAL_PATTERNS, 0.0)
        assert len(detector.entries_for_pattern(3, limit=4)) == 4

    def test_entries_oldest_first(self):
        detector = LossDetector()
        detector.observe(ev(0, 3, 2), LOCAL_PATTERNS, 0.0)
        detector.observe(ev(0, 3, 4), LOCAL_PATTERNS, 1.0)
        keys = detector.entries_for_pattern(3)
        assert keys == [(0, 3, 1), (0, 3, 3)]


class TestBounds:
    def test_capacity_drops_oldest(self):
        detector = LossDetector(capacity=3)
        detector.observe(ev(0, 3, 6), LOCAL_PATTERNS, 0.0)  # misses 1..5
        assert detector.pending() == 3
        assert detector.abandoned == 2
        # The oldest (lowest seq) entries were dropped.
        assert detector.entries_for_pattern(3) == [(0, 3, 3), (0, 3, 4), (0, 3, 5)]

    def test_abandoned_entries_not_redetected(self):
        detector = LossDetector(capacity=2)
        detector.observe(ev(0, 3, 5), LOCAL_PATTERNS, 0.0)
        # seq 1, 2 abandoned; their late arrival counts as nothing special
        detector.observe(ev(0, 3, 1), LOCAL_PATTERNS, 1.0)
        assert detector.recovered == 0
        assert detector.pending() == 2

    def test_give_up_age_prunes_lazily(self):
        detector = LossDetector(give_up_age=1.0)
        detector.observe(ev(0, 3, 3), LOCAL_PATTERNS, 0.0)
        assert detector.pending() == 2
        assert detector.patterns_with_losses(now=2.5) == []
        assert detector.abandoned == 2

    def test_invalid_capacity_rejected(self):
        with pytest.raises(ValueError):
            LossDetector(capacity=0)

    @settings(max_examples=40, deadline=None)
    @given(
        seqs=st.lists(st.integers(min_value=1, max_value=40), min_size=1, max_size=40)
    )
    def test_pending_equals_unseen_below_max(self, seqs):
        detector = LossDetector()
        for seq in seqs:
            detector.observe(ev(0, 3, seq), LOCAL_PATTERNS, 0.0)
        max_seen = max(seqs)
        expected = {s for s in range(1, max_seen)} - set(seqs)
        actual = {key[2] for key in detector.entries_for_pattern(3)}
        assert actual == expected


# ----------------------------------------------------------------------
# Differential test: the bucketed buffer against the single-OrderedDict
# layout it replaced, frozen here as the reference model.
# ----------------------------------------------------------------------
_REF_PATTERN_BITS = 20
_REF_SEQ_BITS = 32


class _ReferenceLostEntry:
    """One detected loss, with its detection time (for ageing policies)."""

    __slots__ = ("source", "pattern", "seq", "detected_at")

    def __init__(self, source: int, pattern: int, seq: int, detected_at: float) -> None:
        self.source = source
        self.pattern = pattern
        self.seq = seq
        self.detected_at = detected_at

    def __repr__(self) -> str:  # pragma: no cover - debug aid
        return f"_ReferenceLostEntry(src={self.source}, p={self.pattern}, seq={self.seq})"


class _ReferenceStreamState:
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


class ReferenceLossDetector:
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
        self._streams: Dict[int, _ReferenceStreamState] = {}
        self._lost: "OrderedDict[int, _ReferenceLostEntry]" = OrderedDict()
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
    def observe(self, event: Event, local_patterns, now: float) -> List[_ReferenceLostEntry]:
        """Process one received event (normal or recovered).

        ``local_patterns`` is a container supporting ``in`` with the
        patterns this dispatcher locally subscribes to: gaps are only
        detectable (and only relevant) on locally subscribed streams.
        Returns the newly detected losses.
        """
        new_losses: List[_ReferenceLostEntry] = []
        source = event.event_id.source
        source_key = source << _REF_PATTERN_BITS
        streams = self._streams
        lost = self._lost
        for pattern, seq in event.pattern_seqs.items():
            if pattern not in local_patterns:
                continue
            stream_key = source_key | pattern
            state = streams.get(stream_key)
            if state is None:
                state = _ReferenceStreamState()
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
                entry = lost.pop(stream_key << _REF_SEQ_BITS | seq, None)
                if entry is not None:
                    self.recovered += 1
                    self._deindex(entry)
            elif seq > max_seen:
                if missing is None:
                    missing = state.missing = set()
                pattern_counts = self._pattern_counts
                source_counts = self._source_counts
                lost_key_base = stream_key << _REF_SEQ_BITS
                for missing_seq in range(max_seen + 1, seq):
                    missing.add(missing_seq)
                    entry = _ReferenceLostEntry(source, pattern, missing_seq, now)
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

    def _forget(self, entry: _ReferenceLostEntry) -> None:
        state = self._streams.get(entry.source << _REF_PATTERN_BITS | entry.pattern)
        if state is not None and state.missing is not None:
            state.missing.discard(entry.seq)
            if not state.missing:
                state.missing = None
        self._deindex(entry)

    def _deindex(self, entry: _ReferenceLostEntry) -> None:
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
                (entry.source << _REF_PATTERN_BITS | entry.pattern) << _REF_SEQ_BITS
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
            (source << _REF_PATTERN_BITS | pattern) << _REF_SEQ_BITS | seq
        ) in self._lost

    def __len__(self) -> int:
        return len(self._lost)

    def __repr__(self) -> str:  # pragma: no cover - debug aid
        return (
            f"<ReferenceLossDetector pending={len(self._lost)} detected={self.detected} "
            f"recovered={self.recovered} abandoned={self.abandoned}>"
        )


SOURCES = (0, 1, 2)
PATTERNS = (3, 5, 8)  # 5 is not locally subscribed
MAX_SEQ = 12

_observe = st.tuples(
    st.just("observe"),
    st.sampled_from(SOURCES),
    st.dictionaries(
        st.sampled_from(PATTERNS), st.integers(1, MAX_SEQ), min_size=1, max_size=3
    ),
)
_steps = st.lists(
    st.tuples(
        st.one_of(_observe, _observe, _observe, st.tuples(st.just("reset"), st.booleans())),
        st.sampled_from((0.0, 0.0, 0.25, 0.5, 1.0)),
    ),
    max_size=40,
)
_BOUNDS = {
    "unbounded": (st.none(), st.none()),
    "capacity": (st.integers(1, 6), st.none()),
    "give_up_age": (st.none(), st.sampled_from((0.25, 0.5, 1.0, 2.0))),
    "both": (st.integers(1, 6), st.sampled_from((0.25, 0.5, 1.0, 2.0))),
}


def assert_same_state(reference, detector, now, limit):
    assert (detector.detected, detector.recovered, detector.abandoned) == (
        reference.detected, reference.recovered, reference.abandoned
    )
    assert detector.pending() == len(detector) == reference.pending()
    assert detector.has_losses(now) == reference.has_losses(now)
    assert detector.patterns_with_losses(now) == reference.patterns_with_losses(now)
    assert detector.sources_with_losses(now) == reference.sources_with_losses(now)
    assert detector.abandoned == reference.abandoned
    for pattern in PATTERNS:
        assert detector.entries_for_pattern(pattern, limit) == (
            reference.entries_for_pattern(pattern, limit)
        )
    for source in SOURCES:
        assert detector.entries_for_source(source, limit) == (
            reference.entries_for_source(source, limit)
        )
    for source in SOURCES:
        for pattern in PATTERNS:
            for seq in range(MAX_SEQ + 1):
                assert detector.is_pending(source, pattern, seq) == (
                    reference.is_pending(source, pattern, seq)
                )


@pytest.mark.parametrize("bounds", sorted(_BOUNDS))
@settings(max_examples=60, deadline=None)
@given(data=st.data())
def test_matches_ordered_dict_reference(bounds, data):
    capacity_strategy, age_strategy = _BOUNDS[bounds]
    capacity = data.draw(capacity_strategy, label="capacity")
    give_up_age = data.draw(age_strategy, label="give_up_age")
    limit = data.draw(st.none() | st.integers(1, 4), label="limit")
    steps = data.draw(_steps, label="steps")
    reference = ReferenceLossDetector(capacity, give_up_age)
    detector = LossDetector(capacity, give_up_age)
    now = 0.0
    for op, dt in steps:
        now += dt
        if op[0] == "reset":
            reference.reset(resync=op[1])
            detector.reset(resync=op[1])
        else:
            _, source, pattern_seqs = op
            event = make_event(
                source=source, patterns=tuple(pattern_seqs), pattern_seqs=pattern_seqs
            )
            expected = [
                (entry.source, entry.pattern, entry.seq)
                for entry in reference.observe(event, LOCAL_PATTERNS, now)
            ]
            assert detector.observe(event, LOCAL_PATTERNS, now) == expected
        assert_same_state(reference, detector, now, limit)

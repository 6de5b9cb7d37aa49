"""DeliveryTracker: the bitmap records (``compact=True``) against the
hash-set records they replace at N >= 1000.

Both layouts are driven with one stream of publishes and deliveries --
including deliveries of untracked events, to unexpected nodes, and
duplicates -- and must agree on every counter, on ``stats()`` over any
window, on ``time_series()`` with and without recovery, and on
``pending_pairs()``.
"""

from __future__ import annotations

from hypothesis import given, settings, strategies as st

from repro.metrics.delivery import DeliveryTracker
from tests.conftest import make_event

_nodes = st.integers(min_value=0, max_value=40)
_events = st.lists(
    st.tuples(
        st.floats(min_value=0.0, max_value=10.0, allow_nan=False),
        st.frozensets(_nodes, max_size=12),
    ),
    min_size=1,
    max_size=12,
)
_deliveries = st.lists(
    st.tuples(
        # Index into the published events; past the end is an event that
        # was never published (an untracked delivery).
        st.integers(min_value=0, max_value=14),
        _nodes,
        st.booleans(),
        st.floats(min_value=0.0, max_value=5.0, allow_nan=False),
    ),
    max_size=120,
)


def _counters(tracker: DeliveryTracker) -> tuple:
    return (
        tracker.untracked_deliveries,
        tracker.unexpected_deliveries,
        tracker.duplicate_deliveries,
        tracker.event_count(),
        tracker.pending_pairs(),
    )


def _series(tracker: DeliveryTracker, include_recovery: bool) -> tuple:
    series = tracker.time_series(0.5, include_recovery=include_recovery)
    return series.times, series.values


@settings(max_examples=150, deadline=None)
@given(events=_events, deliveries=_deliveries, window=st.tuples(
    st.floats(min_value=0.0, max_value=10.0, allow_nan=False),
    st.floats(min_value=0.0, max_value=10.0, allow_nan=False),
))
def test_compact_records_match_classic(events, deliveries, window):
    classic = DeliveryTracker(compact=False)
    compact = DeliveryTracker(compact=True)
    published = []
    for seq, (publish_time, expected) in enumerate(events, start=1):
        event = make_event(seq=seq, publish_time=publish_time)
        published.append(event)
        classic.on_publish(event, expected)
        compact.on_publish(event, expected)
    for index, node_id, recovered, delay in deliveries:
        if index < len(published):
            event = published[index]
        else:
            event = make_event(source=1, seq=index)
        now = event.publish_time + delay
        classic.on_deliver(node_id, event, recovered, now)
        compact.on_deliver(node_id, event, recovered, now)
        assert _counters(compact) == _counters(classic)

    assert compact.stats() == classic.stats()
    start, end = sorted(window)
    assert compact.stats(start, end) == classic.stats(start, end)
    for include_recovery in (True, False):
        assert _series(compact, include_recovery) == _series(
            classic, include_recovery
        )


def test_each_irregular_delivery_is_counted_once_per_layout():
    for compact in (False, True):
        tracker = DeliveryTracker(compact=compact)
        event = make_event(publish_time=1.0)
        tracker.on_publish(event, {3, 17})
        tracker.on_deliver(3, event, False, 1.5)
        tracker.on_deliver(3, event, True, 1.7)  # duplicate
        tracker.on_deliver(16, event, False, 1.5)  # unexpected, same byte
        tracker.on_deliver(99, event, False, 1.5)  # unexpected, past the map
        tracker.on_deliver(3, make_event(seq=2), False, 1.5)  # untracked
        assert (
            tracker.duplicate_deliveries,
            tracker.unexpected_deliveries,
            tracker.untracked_deliveries,
            tracker.pending_pairs(),
        ) == (1, 2, 1, 1), compact
        stats = tracker.stats()
        assert (stats.delivered, stats.recovered) == (1, 0), compact

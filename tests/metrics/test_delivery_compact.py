"""DeliveryTracker's bitmask records against a set-based reference oracle.

The tracker keeps each event's expected and delivered recipients as int
masks.  ``SetOracle`` below keeps them as hash sets, the obvious form.
Both are driven with one stream of publishes and deliveries -- including
deliveries of untracked events, to unexpected nodes, and duplicates --
and must agree on every counter, on ``stats()`` over any window, on
``time_series()`` with and without recovery, and on ``pending_pairs()``.
"""

from __future__ import annotations

from hypothesis import given, settings, strategies as st

from repro.metrics.delivery import DeliveryTracker
from tests.conftest import make_event


class SetOracle:
    """Per event: publish time, expected set, {node: (recovered, latency)}."""

    def __init__(self) -> None:
        self.records: dict = {}
        self.untracked = self.unexpected = self.duplicate = 0

    def on_publish(self, event, expected) -> None:
        self.records[event.event_id] = (event.publish_time, set(expected), {})

    def on_deliver(self, node_id, event, recovered, now) -> None:
        record = self.records.get(event.event_id)
        if record is None:
            self.untracked += 1
        elif node_id not in record[1]:
            self.unexpected += 1
        elif node_id in record[2]:
            self.duplicate += 1
        else:
            record[2][node_id] = (recovered, now - record[0])


def _counters(tracker: DeliveryTracker) -> tuple:
    return (
        tracker.untracked_deliveries,
        tracker.unexpected_deliveries,
        tracker.duplicate_deliveries,
        tracker.event_count(),
        tracker.pending_pairs(),
    )


def _oracle_counters(oracle: SetOracle) -> tuple:
    pending = sum(
        len(expected) - len(delivered)
        for _, expected, delivered in oracle.records.values()
    )
    return (oracle.untracked, oracle.unexpected, oracle.duplicate,
            len(oracle.records), pending)


def _oracle_stats(oracle: SetOracle, start=float("-inf"), end=float("inf")):
    events = expected = delivered = recovered = 0
    latency = recovered_latency = 0.0
    for publish_time, targets, got in oracle.records.values():
        if not start <= publish_time < end:
            continue
        events += 1
        expected += len(targets)
        delivered += len(got)
        recovered += sum(flag for flag, _ in got.values())
        latency += sum(lat for _, lat in got.values())
        recovered_latency += sum(lat for flag, lat in got.values() if flag)
    return (events, expected, delivered, delivered - recovered, recovered,
            latency / delivered if delivered else 0.0,
            recovered_latency / recovered if recovered else 0.0)


def _stats(tracker: DeliveryTracker, *window) -> tuple:
    s = tracker.stats(*window)
    return (s.events, s.expected, s.delivered, s.delivered_normally,
            s.recovered, s.mean_latency, s.mean_recovery_latency)


def _oracle_series(oracle: SetOracle, bins: int, include_recovery: bool):
    expected = [0] * bins
    fulfilled = [0] * bins
    for publish_time, targets, got in oracle.records.values():
        index = int(publish_time / 0.5)
        if index < bins:
            expected[index] += len(targets)
            fulfilled[index] += sum(
                1 for flag, _ in got.values() if include_recovery or not flag
            )
    return [f / e if e else None for f, e in zip(fulfilled, expected)]


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


@settings(max_examples=150, deadline=None)
@given(events=_events, deliveries=_deliveries, window=st.tuples(
    st.floats(min_value=0.0, max_value=10.0, allow_nan=False),
    st.floats(min_value=0.0, max_value=10.0, allow_nan=False),
))
def test_compact_records_match_classic(events, deliveries, window):
    tracker = DeliveryTracker()
    oracle = SetOracle()
    published = []
    for seq, (publish_time, expected) in enumerate(events, start=1):
        event = make_event(seq=seq, publish_time=publish_time)
        published.append(event)
        tracker.on_publish(event, expected)
        oracle.on_publish(event, expected)
    for index, node_id, recovered, delay in deliveries:
        if index < len(published):
            event = published[index]
        else:
            event = make_event(source=1, seq=index)
        now = event.publish_time + delay
        tracker.on_deliver(node_id, event, recovered, now)
        oracle.on_deliver(node_id, event, recovered, now)
        assert _counters(tracker) == _oracle_counters(oracle)

    assert _stats(tracker) == _oracle_stats(oracle)
    start, end = sorted(window)
    assert _stats(tracker, start, end) == _oracle_stats(oracle, start, end)
    last_bin = int(max(t for t, _ in events) / 0.5)
    for include_recovery in (True, False):
        series = tracker.time_series(0.5, include_recovery=include_recovery)
        assert len(series.times) == last_bin + 1
        assert series.values == _oracle_series(
            oracle, last_bin + 1, include_recovery
        )


def test_each_irregular_delivery_is_counted_once_per_layout():
    tracker = DeliveryTracker()
    oracle = SetOracle()
    event = make_event(publish_time=1.0)
    for layout in (tracker, oracle):
        layout.on_publish(event, {3, 17})
        layout.on_deliver(3, event, False, 1.5)
        layout.on_deliver(3, event, True, 1.7)  # duplicate
        layout.on_deliver(16, event, False, 1.5)  # unexpected, same byte
        layout.on_deliver(99, event, False, 1.5)  # unexpected, past the map
        layout.on_deliver(3, make_event(seq=2), False, 1.5)  # untracked
    assert _counters(tracker) == _oracle_counters(oracle) == (1, 2, 1, 1, 1)
    assert _stats(tracker)[2:5] == _oracle_stats(oracle)[2:5] == (1, 1, 0)

"""Tests for the delivery tracker and its time series."""

from __future__ import annotations

import pytest

from repro.metrics.delivery import DeliveryTracker
from tests.conftest import make_event


class TestDeliveryTracking:
    def test_full_delivery(self):
        tracker = DeliveryTracker()
        event = make_event(publish_time=1.0)
        tracker.on_publish(event, {1, 2})
        tracker.on_deliver(1, event, False, 1.1)
        tracker.on_deliver(2, event, True, 2.0)
        stats = tracker.stats()
        assert stats.events == 1
        assert stats.expected == 2
        assert stats.delivered == 2
        assert stats.recovered == 1
        assert stats.delivery_rate == 1.0
        assert stats.baseline_rate == 0.5
        assert stats.recovered_fraction == 0.5
        assert stats.mean_latency == pytest.approx((0.1 + 1.0) / 2)

    def test_partial_delivery(self):
        tracker = DeliveryTracker()
        event = make_event()
        tracker.on_publish(event, {1, 2, 3, 4})
        tracker.on_deliver(1, event, False, 0.1)
        assert tracker.stats().delivery_rate == pytest.approx(0.25)
        assert tracker.pending_pairs() == 3

    def test_duplicate_and_unexpected_deliveries_flagged(self):
        tracker = DeliveryTracker()
        event = make_event()
        tracker.on_publish(event, {1})
        tracker.on_deliver(1, event, False, 0.1)
        tracker.on_deliver(1, event, True, 0.2)
        tracker.on_deliver(9, event, False, 0.3)
        assert tracker.duplicate_deliveries == 1
        assert tracker.unexpected_deliveries == 1
        assert tracker.stats().delivered == 1

    def test_untracked_delivery_flagged(self):
        tracker = DeliveryTracker()
        tracker.on_deliver(1, make_event(), False, 0.1)
        assert tracker.untracked_deliveries == 1

    def test_measurement_window_filters_by_publish_time(self):
        tracker = DeliveryTracker()
        early = make_event(seq=1, publish_time=0.5)
        inside = make_event(seq=2, publish_time=2.0)
        late = make_event(seq=3, publish_time=9.0)
        for event in (early, inside, late):
            tracker.on_publish(event, {1})
            tracker.on_deliver(1, event, False, event.publish_time + 0.1)
        stats = tracker.stats(start=1.0, end=5.0)
        assert stats.events == 1
        assert stats.expected == 1

    def test_zero_expected_counts_as_perfect(self):
        tracker = DeliveryTracker()
        event = make_event()
        tracker.on_publish(event, set())
        stats = tracker.stats()
        assert stats.delivery_rate == 1.0
        assert stats.baseline_rate == 1.0


class TestTimeSeries:
    def test_bins_group_by_publish_time(self):
        tracker = DeliveryTracker()
        for index, (t, delivered) in enumerate([(0.1, True), (0.9, False), (1.5, True)]):
            event = make_event(seq=index + 1, publish_time=t)
            tracker.on_publish(event, {1})
            if delivered:
                tracker.on_deliver(1, event, False, t + 0.1)
        series = tracker.time_series(bin_width=1.0, start=0.0, end=2.0)
        assert len(series) == 2
        assert series.values[0] == pytest.approx(0.5)
        assert series.values[1] == pytest.approx(1.0)

    def test_empty_bins_are_none(self):
        tracker = DeliveryTracker()
        event = make_event(publish_time=2.5)
        tracker.on_publish(event, {1})
        series = tracker.time_series(bin_width=1.0, start=0.0, end=3.0)
        assert series.values[0] is None
        assert series.values[1] is None
        assert series.values[2] == 0.0

    def test_baseline_series_excludes_recoveries(self):
        tracker = DeliveryTracker()
        event = make_event(publish_time=0.5)
        tracker.on_publish(event, {1, 2})
        tracker.on_deliver(1, event, False, 0.6)
        tracker.on_deliver(2, event, True, 1.5)
        with_recovery = tracker.time_series(1.0, 0.0, 1.0)
        without = tracker.time_series(1.0, 0.0, 1.0, include_recovery=False)
        assert with_recovery.values[0] == pytest.approx(1.0)
        assert without.values[0] == pytest.approx(0.5)

    def test_invalid_bin_width(self):
        tracker = DeliveryTracker()
        with pytest.raises(ValueError):
            tracker.time_series(bin_width=0.0)

    def test_default_end_covers_the_latest_publish(self):
        tracker = DeliveryTracker()
        for seq, t in enumerate((0.2, 0.7, 1.0), start=1):
            event = make_event(seq=seq, publish_time=t)
            tracker.on_publish(event, {1})
            tracker.on_deliver(1, event, False, t + 0.1)
        series = tracker.time_series(0.5)
        assert series.times == [0.25, 0.75, 1.25]
        assert series.values == [1.0, 1.0, 1.0]

"""Unit and property tests for the discrete-event engine."""

from __future__ import annotations

import pytest
from hypothesis import given, strategies as st

from repro.sim.engine import SimulationError, Simulator
from repro.sim.timers import PeriodicTimer


class TestScheduling:
    def test_events_fire_in_time_order(self):
        sim = Simulator()
        fired = []
        sim.schedule(3.0, fired.append, "c")
        sim.schedule(1.0, fired.append, "a")
        sim.schedule(2.0, fired.append, "b")
        sim.run()
        assert fired == ["a", "b", "c"]

    def test_ties_fire_in_insertion_order(self):
        sim = Simulator()
        fired = []
        for name in "abcdef":
            sim.schedule(1.0, fired.append, name)
        sim.run()
        assert fired == list("abcdef")

    def test_clock_advances_to_event_time(self):
        sim = Simulator()
        seen = []
        sim.schedule(2.5, lambda: seen.append(sim.now))
        sim.run()
        assert seen == [2.5]
        assert sim.now == 2.5

    def test_schedule_at_absolute_time(self):
        sim = Simulator()
        fired = []
        sim.schedule_at(4.0, fired.append, "x")
        sim.run()
        assert fired == ["x"]
        assert sim.now == 4.0

    def test_schedule_in_past_raises_in_strict_mode(self):
        sim = Simulator()
        sim.schedule(1.0, lambda: None)
        sim.run()
        with pytest.raises(SimulationError):
            sim.schedule_at(0.5, lambda: None)

    def test_nested_scheduling_from_callbacks(self):
        sim = Simulator()
        fired = []

        def outer():
            fired.append(("outer", sim.now))
            sim.schedule(1.0, inner)

        def inner():
            fired.append(("inner", sim.now))

        sim.schedule(1.0, outer)
        sim.run()
        assert fired == [("outer", 1.0), ("inner", 2.0)]


class TestCancellation:
    def test_cancelled_event_does_not_fire(self):
        sim = Simulator()
        fired = []
        handle = sim.schedule(1.0, fired.append, "x")
        handle.cancel()
        sim.run()
        assert fired == []

    def test_cancel_is_idempotent(self):
        sim = Simulator()
        handle = sim.schedule(1.0, lambda: None)
        handle.cancel()
        handle.cancel()
        sim.run()

    def test_cancel_drops_payload_references(self):
        sim = Simulator()
        big = object()
        handle = sim.schedule(1.0, lambda x: None, big)
        handle.cancel()
        assert handle.args == ()

    def test_cancel_from_another_callback(self):
        sim = Simulator()
        fired = []
        later = sim.schedule(2.0, fired.append, "later")
        sim.schedule(1.0, later.cancel)
        sim.run()
        assert fired == []

    def test_cancel_after_firing_is_not_counted(self):
        # A handle cancelling itself from its own callback has already left
        # the calendar, so nothing cancelled is pending afterwards.
        sim = Simulator()
        handle = sim.schedule(1.0, lambda: handle.cancel())
        sim.run()
        assert sim.pending == 0
        assert sim.cancelled_pending == 0

    def test_periodic_timer_stopping_itself_leaves_no_cancelled_entry(self):
        sim = Simulator()
        timer = PeriodicTimer(sim, 1.0, lambda: timer.stop())
        timer.start()
        sim.run()
        assert timer.ticks == 1
        assert (sim.pending, sim.cancelled_pending) == (0, 0)

    def test_cancel_after_clear_is_not_counted(self):
        sim = Simulator()
        handle = sim.schedule(1.0, lambda: None)
        sim.clear()
        handle.cancel()
        assert (sim.pending, sim.cancelled_pending) == (0, 0)


class TestRunControl:
    def test_run_until_horizon_stops_clock_at_horizon(self):
        sim = Simulator()
        fired = []
        sim.schedule(1.0, fired.append, "in")
        sim.schedule(5.0, fired.append, "out")
        sim.run(until=2.0)
        assert fired == ["in"]
        assert sim.now == 2.0
        assert sim.pending == 1

    def test_event_exactly_at_horizon_fires(self):
        sim = Simulator()
        fired = []
        sim.schedule(2.0, fired.append, "edge")
        sim.run(until=2.0)
        assert fired == ["edge"]

    def test_run_can_resume_after_horizon(self):
        sim = Simulator()
        fired = []
        sim.schedule(1.0, fired.append, "a")
        sim.schedule(3.0, fired.append, "b")
        sim.run(until=2.0)
        sim.run(until=4.0)
        assert fired == ["a", "b"]

    def test_empty_run_advances_to_horizon(self):
        sim = Simulator()
        sim.run(until=7.0)
        assert sim.now == 7.0

    def test_stop_from_callback(self):
        sim = Simulator()
        fired = []
        sim.schedule(1.0, lambda: (fired.append("a"), sim.stop()))
        sim.schedule(2.0, fired.append, "b")
        sim.run()
        assert fired == ["a"]
        assert sim.pending == 1

    def test_max_events_budget(self):
        sim = Simulator()
        fired = []
        for i in range(10):
            sim.schedule(float(i + 1), fired.append, i)
        sim.run(max_events=3)
        assert fired == [0, 1, 2]

    def test_step_executes_single_event(self):
        sim = Simulator()
        fired = []
        sim.schedule(1.0, fired.append, "a")
        sim.schedule(2.0, fired.append, "b")
        assert sim.step() is True
        assert fired == ["a"]
        assert sim.step() is True
        assert sim.step() is False

    def test_reentrant_run_raises(self):
        sim = Simulator()

        def nested():
            with pytest.raises(SimulationError):
                sim.run()

        sim.schedule(1.0, nested)
        sim.run()

    def test_peek_skips_cancelled(self):
        sim = Simulator()
        first = sim.schedule(1.0, lambda: None)
        sim.schedule(2.0, lambda: None)
        first.cancel()
        assert sim.peek() == 2.0

    def test_clear_drops_all_pending(self):
        sim = Simulator()
        sim.schedule(1.0, lambda: None)
        sim.schedule(2.0, lambda: None)
        sim.clear()
        sim.run()
        assert sim.now == 0.0

    def test_events_processed_counts_only_executed(self):
        sim = Simulator()
        handle = sim.schedule(1.0, lambda: None)
        sim.schedule(2.0, lambda: None)
        handle.cancel()
        sim.run()
        assert sim.events_processed == 1


class TestPropertyBased:
    @given(
        delays=st.lists(
            st.floats(min_value=0.0, max_value=1e6, allow_nan=False),
            min_size=1,
            max_size=200,
        )
    )
    def test_firing_order_is_sorted_and_stable(self, delays):
        sim = Simulator()
        fired = []
        for index, delay in enumerate(delays):
            sim.schedule(delay, fired.append, (delay, index))
        sim.run()
        assert len(fired) == len(delays)
        # Sorted by time, FIFO among equal times -- exactly the order of
        # a stable sort on delay.
        assert fired == sorted(fired, key=lambda pair: (pair[0], pair[1]))

    @given(
        delays=st.lists(
            st.floats(min_value=0.0, max_value=100.0, allow_nan=False),
            min_size=1,
            max_size=100,
        ),
        horizon=st.floats(min_value=0.0, max_value=100.0, allow_nan=False),
    )
    def test_horizon_partitions_events(self, delays, horizon):
        sim = Simulator()
        fired = []
        for delay in delays:
            sim.schedule(delay, fired.append, delay)
        sim.run(until=horizon)
        assert all(delay <= horizon for delay in fired)
        assert len(fired) == sum(1 for delay in delays if delay <= horizon)

    @given(st.integers(min_value=1, max_value=50))
    def test_chained_scheduling_advances_clock(self, chain_length):
        sim = Simulator()
        count = [0]

        def advance():
            count[0] += 1
            if count[0] < chain_length:
                sim.schedule(1.0, advance)

        sim.schedule(1.0, advance)
        sim.run()
        assert count[0] == chain_length
        assert sim.now == pytest.approx(float(chain_length))

"""Stress/property tests for the engine under churn: random interleavings
of scheduling, cancellation, and nested scheduling from callbacks."""

from __future__ import annotations

import random

from hypothesis import given, settings, strategies as st

from repro.sim.engine import Simulator


class TestEngineChurn:
    @settings(max_examples=40, deadline=None)
    @given(seed=st.integers(), operations=st.integers(min_value=1, max_value=300))
    def test_random_schedule_cancel_interleavings(self, seed, operations):
        """Every handle never cancelled fires once, in ``(time, seq)`` order.

        The op mix covers relative and absolute schedules over horizons
        from sub-millisecond to tens of seconds, cancels before the run,
        and callbacks that schedule and cancel further work mid-run,
        including cancels of handles that already fired (no-ops).  The run
        goes in slices of random length, and after each one no more
        cancelled entries may be counted than the calendar holds.
        """
        rng = random.Random(seed)
        sim = Simulator()
        handles = []  # every handle, indexed by the tag its callback gets
        live = []  # handles neither fired nor cancelled
        cancelled = []
        fired = []

        def add(handle):
            handles.append(handle)
            live.append(handle)

        def cancel_one():
            if live:
                handle = live.pop(rng.randrange(len(live)))
                handle.cancel()
                cancelled.append(handle)

        def fire(tag):
            fired.append(handles[tag])
            live.remove(handles[tag])

        def fire_spawn_and_cancel(tag, delay):
            fire(tag)
            add(sim.schedule(delay, fire, len(handles)))
            if rng.random() < 0.5:
                cancel_one()

        def fire_and_cancel(tag):
            fire(tag)
            cancel_one()
            # Cancelling a fired handle (this one, or an earlier one) must
            # change nothing.
            rng.choice(fired).cancel()

        for _ in range(operations):
            roll = rng.random()
            if roll < 0.4 or not live:
                delay = rng.random() * rng.choice((1e-4, 1e-2, 1.0, 50.0))
                add(sim.schedule(delay, fire, len(handles)))
            elif roll < 0.55:
                add(sim.schedule_at(rng.random() * 5.0, fire, len(handles)))
            elif roll < 0.8:
                cancel_one()
            elif roll < 0.95:
                add(sim.schedule(
                    rng.random() * 2.0, fire_spawn_and_cancel, len(handles),
                    rng.random() * 3.0,
                ))
            else:
                add(sim.schedule(0.0, fire_and_cancel, len(handles)))
        while sim.pending:
            sim.run(max_events=rng.randint(1, 50))
            assert sim.cancelled_pending <= sim.pending
        survivors = [handle for handle in handles if handle not in cancelled]
        assert fired == sorted(survivors, key=lambda h: (h.time, h.seq))
        assert sim.events_processed == len(fired)
        assert sim.now == (fired[-1].time if fired else 0.0)
        assert sim.pending == 0
        assert sim.cancelled_pending == 0

    @settings(max_examples=20, deadline=None)
    @given(seed=st.integers(), depth=st.integers(min_value=1, max_value=30))
    def test_cascading_callbacks_preserve_order(self, seed, depth):
        rng = random.Random(seed)
        sim = Simulator()
        order = []

        def spawn(level):
            order.append((sim.now, level))
            if level < depth:
                sim.schedule(rng.random() + 0.01, spawn, level + 1)

        sim.schedule(0.0, spawn, 0)
        sim.run()
        times = [t for t, _ in order]
        assert times == sorted(times)
        assert [level for _, level in order] == list(range(depth + 1))

    def test_many_events_complete(self):
        sim = Simulator()
        count = [0]

        def bump():
            count[0] += 1

        for i in range(50_000):
            sim.schedule((i % 997) * 1e-4, bump)
        sim.run()
        assert count[0] == 50_000
        assert sim.events_processed == 50_000

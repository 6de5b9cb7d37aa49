"""Differential tests: the timer-wheel ``Simulator`` against the reference
``HeapSimulator``.

The wheel is a pure data-structure optimization; the two engines must be
observationally identical -- same fire order, same clock reads, same
``events_processed`` -- for any interleaving of ``schedule`` /
``schedule_at`` / ``cancel``, including callbacks that schedule and cancel
further work.  The scenario-level test goes one step further and checks
that a whole simulation's :meth:`RunResult.signature` is byte-identical
when the builder is forced onto the heap engine.
"""

from __future__ import annotations

from hypothesis import given, settings, strategies as st

import repro.scenarios.builder as builder_module
from repro.scenarios.config import SimulationConfig
from repro.scenarios.runner import run_scenario
from repro.sim.engine import Simulator
from repro.sim.rng import RandomStreams
from tests.sim.heap_simulator import HeapSimulator


def _drive(sim, rng, operations):
    """Apply a deterministic op mix to ``sim``; return the fire log.

    ``rng`` must be a fresh stream per engine so both see identical draws.
    Roughly: 50% relative schedule, 20% absolute schedule, 20% cancel,
    10% schedule-from-callback (which itself may cancel a live handle).
    """
    fired = []
    handles = []

    def fire(tag):
        fired.append((sim.now, tag))

    def fire_and_spawn(tag, delay):
        fired.append((sim.now, tag))
        handles.append((tag + 100_000, sim.schedule(delay, fire, tag + 100_000)))
        if handles and rng.random() < 0.5:
            _, handle = handles.pop(rng.randrange(len(handles)))
            handle.cancel()

    for index in range(operations):
        roll = rng.random()
        if roll < 0.5 or not handles:
            # Delays spanning sub-bucket to far-overflow horizons.
            delay = rng.random() * rng.choice((1e-4, 1e-2, 1.0, 50.0))
            handles.append((index, sim.schedule(delay, fire, index)))
        elif roll < 0.7:
            at = sim.now + rng.random() * 5.0
            handles.append((index, sim.schedule_at(at, fire, index)))
        elif roll < 0.9:
            _, handle = handles.pop(rng.randrange(len(handles)))
            handle.cancel()
        else:
            delay = rng.random() * 2.0
            sim.schedule(delay, fire_and_spawn, index, rng.random() * 3.0)
    sim.run()
    return fired


class TestWheelHeapEquivalence:
    @settings(max_examples=30, deadline=None)
    @given(
        seed=st.integers(min_value=0, max_value=2**32 - 1),
        operations=st.integers(min_value=1, max_value=250),
    )
    def test_fire_order_matches_reference_engine(self, seed, operations):
        # Identical op streams: each engine gets its own copy of the same
        # derived stream so handle bookkeeping stays in lockstep.
        wheel_log = _drive(
            Simulator(), RandomStreams(seed).stream("ops"), operations
        )
        heap_log = _drive(
            HeapSimulator(), RandomStreams(seed).stream("ops"), operations
        )
        assert wheel_log == heap_log

    @settings(max_examples=15, deadline=None)
    @given(seed=st.integers(min_value=0, max_value=2**32 - 1))
    def test_tiny_wheel_forces_overflow_and_still_matches(self, seed):
        # A 4-slot wheel pushes nearly everything through the overflow heap
        # and bucket-promotion paths; the fire order must not care.
        wheel = Simulator(bucket_width=1e-3, wheel_slots=4)
        wheel_log = _drive(wheel, RandomStreams(seed).stream("ops"), 200)
        heap = HeapSimulator()
        heap_log = _drive(heap, RandomStreams(seed).stream("ops"), 200)
        assert wheel_log == heap_log
        assert wheel.events_processed == heap.events_processed
        assert wheel.now == heap.now

    def test_scenario_signature_identical_across_engines(self, monkeypatch):
        config = SimulationConfig(
            n_dispatchers=16,
            n_patterns=16,
            algorithm="combined-pull",
            error_rate=0.1,
            publish_rate=25.0,
            buffer_size=200,
            sim_time=2.0,
            measure_start=0.4,
            measure_end=1.6,
            reconfiguration_interval=0.3,
            seed=23,
        )
        wheel_result = run_scenario(config)
        monkeypatch.setattr(builder_module, "Simulator", HeapSimulator)
        heap_result = run_scenario(config)
        assert wheel_result.signature() == heap_result.signature()

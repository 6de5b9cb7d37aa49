"""Tests for PeriodicTimer and Timeout."""

from __future__ import annotations

import pytest

from repro.sim.engine import SimulationError, Simulator
from repro.sim.timers import PeriodicTimer, Timeout


class TestPeriodicTimer:
    def test_ticks_at_fixed_period(self):
        sim = Simulator()
        ticks = []
        timer = PeriodicTimer(sim, 0.5, lambda: ticks.append(sim.now))
        timer.start()
        sim.run(until=2.0)
        assert ticks == [0.0, 0.5, 1.0, 1.5, 2.0]

    def test_phase_delays_first_tick(self):
        sim = Simulator()
        ticks = []
        timer = PeriodicTimer(sim, 1.0, lambda: ticks.append(sim.now), phase=0.25)
        timer.start()
        sim.run(until=2.5)
        assert ticks == [0.25, 1.25, 2.25]

    def test_stop_halts_ticking(self):
        sim = Simulator()
        ticks = []
        timer = PeriodicTimer(sim, 1.0, lambda: ticks.append(sim.now))
        timer.start()
        sim.schedule(2.5, timer.stop)
        sim.run(until=10.0)
        assert ticks == [0.0, 1.0, 2.0]
        assert not timer.running

    def test_stop_from_own_callback(self):
        sim = Simulator()
        timer = PeriodicTimer(sim, 1.0, lambda: timer.stop())
        timer.start()
        sim.run(until=10.0)
        assert timer.ticks == 1

    def test_restart_after_stop(self):
        sim = Simulator()
        ticks = []
        timer = PeriodicTimer(sim, 1.0, lambda: ticks.append(sim.now))
        timer.start()
        sim.schedule(1.5, timer.stop)
        sim.schedule(5.0, timer.start)
        sim.run(until=7.0)
        assert ticks == [0.0, 1.0, 5.0, 6.0, 7.0]

    def test_start_is_idempotent(self):
        sim = Simulator()
        ticks = []
        timer = PeriodicTimer(sim, 1.0, lambda: ticks.append(sim.now))
        timer.start()
        timer.start()
        sim.run(until=2.0)
        assert ticks == [0.0, 1.0, 2.0]

    def test_set_period_takes_effect_next_interval(self):
        sim = Simulator()
        ticks = []
        timer = PeriodicTimer(sim, 1.0, lambda: ticks.append(sim.now))
        timer.start()
        sim.schedule(1.5, timer.set_period, 2.0)
        sim.run(until=6.0)
        assert ticks == [0.0, 1.0, 2.0, 4.0, 6.0]

    def test_invalid_period_rejected(self):
        sim = Simulator()
        with pytest.raises(SimulationError):
            PeriodicTimer(sim, 0.0, lambda: None)
        with pytest.raises(SimulationError):
            PeriodicTimer(sim, -1.0, lambda: None)
        timer = PeriodicTimer(sim, 1.0, lambda: None)
        with pytest.raises(SimulationError):
            timer.set_period(0.0)

    def test_negative_phase_rejected(self):
        sim = Simulator()
        with pytest.raises(SimulationError):
            PeriodicTimer(sim, 1.0, lambda: None, phase=-0.1)

    def test_tick_counter(self):
        sim = Simulator()
        timer = PeriodicTimer(sim, 1.0, lambda: None)
        timer.start()
        sim.run(until=4.5)
        assert timer.ticks == 5  # t = 0, 1, 2, 3, 4


class TestTimeout:
    def test_fires_after_delay(self):
        sim = Simulator()
        fired = []
        timeout = Timeout(sim, lambda: fired.append(sim.now))
        timeout.restart(3.0)
        sim.run()
        assert fired == [3.0]
        assert not timeout.armed

    def test_restart_supersedes_previous_deadline(self):
        sim = Simulator()
        fired = []
        timeout = Timeout(sim, lambda: fired.append(sim.now))
        timeout.restart(3.0)
        sim.schedule(1.0, timeout.restart, 5.0)
        sim.run()
        assert fired == [6.0]

    def test_cancel_prevents_firing(self):
        sim = Simulator()
        fired = []
        timeout = Timeout(sim, lambda: fired.append(sim.now))
        timeout.restart(3.0)
        sim.schedule(1.0, timeout.cancel)
        sim.run()
        assert fired == []

    def test_armed_reflects_state(self):
        sim = Simulator()
        timeout = Timeout(sim, lambda: None)
        assert not timeout.armed
        timeout.restart(1.0)
        assert timeout.armed
        timeout.cancel()
        assert not timeout.armed

    def test_reusable_after_firing(self):
        sim = Simulator()
        fired = []
        timeout = Timeout(sim, lambda: fired.append(sim.now))
        timeout.restart(1.0)
        sim.schedule(2.0, timeout.restart, 1.0)
        sim.run()
        assert fired == [1.0, 3.0]

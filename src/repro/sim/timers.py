"""Timer utilities built on top of the engine.

:class:`PeriodicTimer` drives every recurring activity in the simulation:
gossip rounds, publishing, reconfiguration triggers, metric sampling.
:class:`Timeout` is a restartable one-shot timer.
"""

from __future__ import annotations

from typing import Any, Callable, Optional

from repro.sim.engine import ScheduledEvent, SimulationError, Simulator

__all__ = ["PeriodicTimer", "Timeout"]


class PeriodicTimer:
    """Invoke a callback every ``period`` seconds.

    Parameters
    ----------
    sim:
        The simulator to schedule on.
    period:
        Interval between invocations, in simulated seconds.  Must be > 0.
    callback:
        Called with no arguments at each tick.
    phase:
        Delay before the first tick.  Gossip timers use a random phase in
        ``[0, T)`` so that dispatchers do not gossip in lockstep.

    The timer does not start automatically; call :meth:`start`.
    """

    __slots__ = ("_sim", "period", "_callback", "_phase", "_handle",
                 "_ticks", "_running")

    def __init__(
        self,
        sim: Simulator,
        period: float,
        callback: Callable[[], Any],
        phase: float = 0.0,
    ) -> None:
        if period <= 0.0:
            raise SimulationError(f"timer period must be positive, got {period}")
        if phase < 0.0:
            raise SimulationError(f"timer phase must be >= 0, got {phase}")
        self._sim = sim
        self.period = period
        self._callback = callback
        self._phase = phase
        self._handle: Optional[ScheduledEvent] = None
        self._ticks = 0
        self._running = False

    @property
    def ticks(self) -> int:
        """Number of times the callback fired so far."""
        return self._ticks

    @property
    def running(self) -> bool:
        return self._running

    def start(self) -> None:
        """Arm the timer.  The first tick happens after ``phase`` seconds."""
        if self._running:
            return
        self._running = True
        self._handle = self._sim.schedule(self._phase, self._fire)

    def stop(self) -> None:
        """Disarm the timer.  Safe to call repeatedly."""
        self._running = False
        if self._handle is not None:
            self._handle.cancel()
            self._handle = None

    def set_period(self, period: float) -> None:
        """Change the interval; takes effect from the next rescheduling."""
        if period <= 0.0:
            raise SimulationError(f"timer period must be positive, got {period}")
        self.period = period

    def _fire(self) -> None:
        if not self._running:
            return
        self._ticks += 1
        self._callback()
        if not self._running:
            # The callback may have stopped the timer.
            return
        self._handle = self._sim.schedule(self.period, self._fire)


class Timeout:
    """A restartable one-shot timer.

    Used, e.g., by the reconfiguration engine to model the 0.1 s repair
    delay.  Calling :meth:`restart` while armed cancels the previous
    deadline.
    """

    __slots__ = ("_sim", "_callback", "_handle")

    def __init__(self, sim: Simulator, callback: Callable[[], Any]) -> None:
        self._sim = sim
        self._callback = callback
        self._handle: Optional[ScheduledEvent] = None

    @property
    def armed(self) -> bool:
        return self._handle is not None and not self._handle.cancelled

    def restart(self, delay: float) -> None:
        """(Re-)arm the timeout to fire ``delay`` seconds from now."""
        self.cancel()
        self._handle = self._sim.schedule(delay, self._expire)

    def cancel(self) -> None:
        if self._handle is not None:
            self._handle.cancel()
            self._handle = None

    def _expire(self) -> None:
        self._handle = None
        self._callback()

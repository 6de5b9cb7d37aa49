"""Discrete-event simulation kernel.

This subpackage replaces OMNeT++ (the simulator used by the paper) with a
small, dependency-free discrete-event engine:

* :class:`~repro.sim.engine.Simulator` -- the event calendar and clock.
* :class:`~repro.sim.timers.PeriodicTimer` -- periodic activities such as
  gossip rounds and publishing.
* :class:`~repro.sim.rng.RandomStreams` -- named, independently seeded
  random streams so that, e.g., changing the gossip algorithm does not
  perturb the workload or the link-loss draws.

The engine is deterministic: two runs with the same seed and the same
schedule of calls produce identical event orderings (ties in timestamps are
broken FIFO by insertion order).
"""

from repro.sim.engine import Simulator, ScheduledEvent, SimulationError
from repro.sim.rng import RandomStreams
from repro.sim.timers import PeriodicTimer, Timeout

__all__ = [
    "Simulator",
    "ScheduledEvent",
    "SimulationError",
    "PeriodicTimer",
    "Timeout",
    "RandomStreams",
]

"""repro -- Epidemic Algorithms for Reliable Content-Based Publish-Subscribe.

A from-scratch Python reproduction of Costa, Migliavacca, Picco, Cugola,
*"Epidemic Algorithms for Reliable Content-Based Publish-Subscribe: An
Evaluation"* (ICDCS 2004): a discrete-event simulator, a content-based
publish-subscribe substrate with subscription forwarding on an unrooted
tree overlay, and the paper's epidemic recovery algorithms (push,
subscriber-based pull, publisher-based pull, combined pull, plus the
random-routing controls), together with the full evaluation harness.

Quickstart
----------
>>> from repro import SimulationConfig, run_scenario
>>> config = SimulationConfig(
...     n_dispatchers=20, publish_rate=10, sim_time=5.0,
...     algorithm="combined-pull", seed=7,
... )
>>> result = run_scenario(config)
>>> result.delivery_rate > result.baseline_rate
True

See ``examples/`` for complete scenarios and ``benchmarks/`` for the
reproduction of every figure of the paper's evaluation.
"""

from repro.scenarios.config import SimulationConfig
from repro.scenarios.builder import Simulation
from repro.scenarios.results import RunResult
from repro.scenarios.runner import run_many, run_scenario
from repro.recovery import ALGORITHMS, PAPER_ALGORITHMS, create_recovery
from repro.faults import FaultPlan
from repro.recovery.degrade import DegradationConfig
from repro.pubsub.system import PubSubSystem
from repro.pubsub.event import Event, EventId
from repro.sim.engine import Simulator

__version__ = "1.0.0"


def __getattr__(name: str):
    # ``repro.campaign`` loads the process pool; most imports never need it.
    if name == "run_campaign":
        from repro.campaign import run_campaign

        return run_campaign
    raise AttributeError(f"module {__name__!r} has no attribute {name!r}")


__all__ = [
    "SimulationConfig",
    "Simulation",
    "RunResult",
    "run_scenario",
    "run_many",
    "run_campaign",
    "ALGORITHMS",
    "PAPER_ALGORITHMS",
    "create_recovery",
    "FaultPlan",
    "DegradationConfig",
    "PubSubSystem",
    "Event",
    "EventId",
    "Simulator",
    "__version__",
]

"""Scenario construction and execution.

* :class:`~repro.scenarios.config.SimulationConfig` -- every knob of the
  evaluation, defaulting to the paper's Figure 2 values;
* :class:`~repro.scenarios.builder.Simulation` -- wires engine, topology,
  network, dispatchers, workload, recovery, and metrics together;
* :func:`~repro.scenarios.runner.run_scenario` -- one-call execution
  returning a :class:`~repro.scenarios.results.RunResult`;
* :mod:`~repro.scenarios.experiments` -- the canned experiment definitions
  behind every figure-reproduction benchmark;
* :mod:`~repro.scenarios.sweep` -- parameter-sweep helpers;
* :mod:`~repro.scenarios.serialize` -- exact JSON round-trip for configs
  and results (the campaign journal's encoding).

Every multi-cell entry point (``sweep``, ``sweep_algorithms``,
``run_grid``, ``run_many``, ``run_replications``, the ``fig*`` experiments
but ``fig_scalability``) accepts ``campaign_dir=`` for journaled,
crash-resumable execution -- see :mod:`repro.campaign`.
"""

from repro.scenarios.config import SimulationConfig
from repro.scenarios.builder import Simulation
from repro.scenarios.results import RunResult
from repro.scenarios.runner import run_scenario, run_many
from repro.scenarios.sweep import sweep, sweep_algorithms

__all__ = [
    "SimulationConfig",
    "Simulation",
    "RunResult",
    "run_scenario",
    "run_many",
    "sweep",
    "sweep_algorithms",
]

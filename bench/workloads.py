"""The benchmark's workloads: four ``SimulationConfig`` builders.

Each workload is built from public ``SimulationConfig`` fields only, and
``seed`` is the benchmark's ``--seed``: the same seed gives the same
topology, subscriptions, publications and loss draws, so the same
simulated work.  ``quick=True`` shrinks every workload to a
sub-second smoke size with the same code paths (including the N >= 1000
``"auto"`` switches of ``scale_free_10k``).

Why each workload exists is in ``BENCHMARK.json`` and ``README.md``.
The sizes keep one timed repeat at about 2-5 s on a 2-core host, so a
30 s run gets 3-10 repeats after its warm-up run.
"""

from __future__ import annotations

from typing import Callable, Dict

from repro.faults import ChurnProcess, FaultPlan, GilbertElliottConfig
from repro.recovery.degrade import DegradationConfig
from repro.scenarios.config import SimulationConfig

__all__ = ["WORKLOADS", "build_config"]


def paper_lossy(seed: int, quick: bool) -> SimulationConfig:
    # Figure 2 defaults: N=100, Π=70, πmax=2, 50 pub/s per node, β=1500,
    # T=0.03, ε=0.1 Bernoulli, combined pull, bushy tree.
    if quick:
        return SimulationConfig(
            n_dispatchers=20, sim_time=1.0, measure_start=0.2,
            measure_end=0.6, seed=seed,
        )
    # Recovery keeps repairing for seconds after a loss, so the window
    # ends 2 s before the horizon.
    return SimulationConfig(
        sim_time=3.0, measure_start=0.5, measure_end=1.0, seed=seed
    )


def paper_lossless(seed: int, quick: bool) -> SimulationConfig:
    config = paper_lossy(seed, quick).replace(algorithm="none", error_rate=0.0)
    if quick:
        return config
    # Routing alone is cheaper per simulated second: run longer.
    return config.replace(sim_time=4.0, measure_start=0.5, measure_end=3.0)


def churn_reconfig(seed: int, quick: bool) -> SimulationConfig:
    base = paper_lossy(seed, quick)
    return base.replace(
        reconfiguration_interval=0.2,
        faults=FaultPlan(
            churn=ChurnProcess(
                rate=1.0, mean_downtime=0.4, start=base.measure_start
            ),
            link_loss=GilbertElliottConfig.from_epsilon(
                0.1, mean_burst_length=5.0
            ),
        ),
        degradation=DegradationConfig(),
    )


def scale_free_10k(seed: int, quick: bool) -> SimulationConfig:
    # benchmarks/record.py's --scale-smoke probe: the system-wide publish
    # load is fixed at 200 events/s whatever N is.
    n = 1_000 if quick else 10_000
    return SimulationConfig(
        n_dispatchers=n,
        n_patterns=70,
        pi_max=2,
        publish_rate=200.0 / n,
        sim_time=0.6,
        measure_start=0.1,
        measure_end=0.4,
        buffer_size=32,
        gossip_interval=0.1,
        error_rate=0.1,
        algorithm="combined-pull",
        tree_style="scale-free",
        workload_model="aggregate",
        seed=seed,
    )


WORKLOADS: Dict[str, Callable[[int, bool], SimulationConfig]] = {
    "paper_lossy": paper_lossy,
    "paper_lossless": paper_lossless,
    "churn_reconfig": churn_reconfig,
    "scale_free_10k": scale_free_10k,
}


def build_config(name: str, seed: int, quick: bool = False) -> SimulationConfig:
    """The config of workload ``name`` at ``seed``."""
    try:
        builder = WORKLOADS[name]
    except KeyError:
        raise ValueError(
            f"unknown workload {name!r}; known: {', '.join(WORKLOADS)}"
        ) from None
    return builder(seed, quick)

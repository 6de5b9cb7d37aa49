"""Canned experiment definitions: one per figure of the paper.

Each ``figN_*`` function runs the simulations behind the corresponding
figure and returns an :class:`ExperimentResult` with the x axis, one curve
per algorithm, and the raw :class:`~repro.scenarios.results.RunResult`
objects.  The benchmark files under ``benchmarks/`` call these, print the
paper-shaped series, and assert the qualitative shapes.

Scale
-----
The paper simulates N = 100 dispatchers for 25 s per data point.  That is
minutes of wall-clock per point in pure Python, so by default experiments
run at **bench scale**: N = 50 dispatchers with Π = 35 patterns (preserving
the paper's Nπ = N·πmax/Π = 2.86 subscribers per pattern), shorter runs,
and buffer sizes converted so that *cache persistence in seconds* matches
the corresponding paper configuration.  Set ``REPRO_PAPER_SCALE=1`` in the
environment to run everything at the paper's full scale.

Scale changes absolute message counts but preserves the comparisons the
paper draws (who wins, plateaus, crossovers); EXPERIMENTS.md records
paper-vs-measured for every figure.
"""

from __future__ import annotations

import os
from dataclasses import dataclass, field
from typing import Callable, Dict, List, Optional, Sequence

from repro.faults.plan import ChurnProcess, FaultPlan
from repro.parallel import map_scenarios
from repro.recovery import PAPER_ALGORITHMS
from repro.recovery.degrade import DegradationConfig
from repro.scenarios.config import SimulationConfig
from repro.scenarios.results import RunResult

__all__ = [
    "ExperimentResult",
    "scale_mode",
    "base_config",
    "equivalent_buffer",
    "fig3a_lossy_delivery",
    "fig3b_reconfiguration",
    "fig4_buffer_sweep",
    "fig4_interval_sweep",
    "fig5_interval_buffer_grid",
    "fig6_scalability",
    "fig7_receivers_per_event",
    "fig8_patterns_delivery",
    "fig9a_overhead_scale",
    "fig9b_overhead_patterns",
    "fig10_overhead_error_rate",
    "fig_scalability",
    "figX_churn_delivery",
]

#: The paper's full-scale reference configuration (Figure 2).
PAPER_CONFIG = SimulationConfig()

#: Algorithms shown in the delivery charts, in the paper's legend order.
DELIVERY_ALGORITHMS = list(PAPER_ALGORITHMS)

#: Algorithms shown in the overhead charts (Figures 9 and 10).
OVERHEAD_ALGORITHMS = ["push", "combined-pull"]


def scale_mode() -> str:
    """``"paper"`` when REPRO_PAPER_SCALE is set, else ``"bench"``."""
    return "paper" if os.environ.get("REPRO_PAPER_SCALE") else "bench"


def base_config(load: str = "high", seed: int = 42) -> SimulationConfig:
    """The scaled counterpart of the paper's default configuration.

    ``load`` selects the paper's high (50 publish/s) or low (5 publish/s)
    publishing regime.
    """
    if load not in ("high", "low"):
        raise ValueError(f"load must be 'high' or 'low', got {load!r}")
    if scale_mode() == "paper":
        config = SimulationConfig(
            publish_rate=50.0 if load == "high" else 5.0,
            sim_time=25.0,
            measure_start=2.0,
            measure_end=20.0,
            seed=seed,
        )
        return config
    config = SimulationConfig(
        n_dispatchers=50,
        n_patterns=35,  # keeps N*pi_max/Pi = 2.86 subscribers per pattern
        publish_rate=50.0 if load == "high" else 5.0,
        sim_time=8.0,
        measure_start=1.0,
        measure_end=4.0,
        seed=seed,
    )
    # Match the paper default's cache persistence (beta=1500 at N=100).
    return config.replace(buffer_size=equivalent_buffer(config, 1500))


def equivalent_buffer(config: SimulationConfig, paper_beta: int) -> int:
    """The β giving ``config`` the same cache persistence (in seconds) that
    ``paper_beta`` gives the paper's full-scale default configuration.

    This is the paper's own methodology ("we increased linearly the buffer
    size together with the system scale, so that a given event persists in
    the buffer for a constant time").
    """
    paper_rate = PAPER_CONFIG.estimated_cache_fill_rate()
    seconds = paper_beta / paper_rate
    return config.buffer_for_persistence(seconds)


@dataclass
class ExperimentResult:
    """Output of one figure-reproduction experiment."""

    experiment_id: str
    title: str
    x_label: str
    x_values: List
    #: curve name -> y value per x (delivery rate, overhead, ...).
    curves: Dict[str, List[Optional[float]]] = field(default_factory=dict)
    #: curve name -> RunResult per x (for deeper inspection).
    results: Dict[str, List[RunResult]] = field(default_factory=dict)
    notes: str = ""

    def curve(self, name: str) -> List[Optional[float]]:
        return self.curves[name]

    def final(self, name: str) -> Optional[float]:
        return self.curves[name][-1]

    def to_table(self) -> str:
        from repro.analysis.tables import format_series_table

        return format_series_table(
            self.x_label,
            self.x_values,
            self.curves,
            title=f"{self.experiment_id}: {self.title} [{scale_mode()} scale]",
        )

    def to_chart(self) -> str:
        from repro.analysis.ascii_chart import ascii_chart

        series = {
            name: list(zip(self._numeric_x(), values))
            for name, values in self.curves.items()
        }
        return ascii_chart(series, title=f"{self.experiment_id}: {self.title}")

    def _numeric_x(self) -> List[float]:
        try:
            return [float(x) for x in self.x_values]
        except (TypeError, ValueError):
            # Categorical axis (e.g. Fig 3's algorithm names): chart by
            # position, in the order the x values were given.
            return [float(index) for index in range(len(self.x_values))]


# ----------------------------------------------------------------------
# Generic sweep driver
# ----------------------------------------------------------------------
def _run_curves(
    experiment_id: str,
    title: str,
    x_label: str,
    x_values: Sequence,
    algorithms: Sequence[str],
    config_for: Callable[[str], SimulationConfig],
    apply_x: Callable[[SimulationConfig], SimulationConfig],
    metric: Callable[[RunResult], float],
    jobs=None,
    campaign_dir: Optional[str] = None,
) -> ExperimentResult:
    """Run ``algorithms`` x ``x_values`` and collect ``metric`` curves.

    ``config_for(algorithm)`` yields the per-algorithm base config;
    ``apply_x(config, x)`` specializes it for one x value.  ``jobs`` fans
    the full algorithm x value grid over worker processes (see
    :mod:`repro.parallel`).
    """
    result = ExperimentResult(experiment_id, title, x_label, list(x_values))
    cells = [
        (algorithm, apply_x(config_for(algorithm), x))
        for algorithm in algorithms
        for x in x_values
    ]
    run_results = map_scenarios(
        [config for _, config in cells], jobs=jobs, campaign_dir=campaign_dir
    )
    grouped: Dict[str, List[RunResult]] = {a: [] for a in algorithms}
    for (algorithm, _config), run in zip(cells, run_results):
        grouped[algorithm].append(run)
    for algorithm in algorithms:
        runs = grouped[algorithm]
        result.curves[algorithm] = [metric(run) for run in runs]
        result.results[algorithm] = runs
    return result


def _delivery(run: RunResult) -> float:
    return run.delivery_rate


# ----------------------------------------------------------------------
# Figure 3(a): delivery under lossy links
# ----------------------------------------------------------------------
def fig3a_lossy_delivery(
    error_rate: float = 0.1,
    algorithms: Sequence[str] = DELIVERY_ALGORITHMS,
    seed: int = 42,
    jobs=None,
    campaign_dir: Optional[str] = None,
) -> ExperimentResult:
    """Delivery rate per algorithm on a stable topology with lossy links.

    The paper runs ε = 0.05 (left chart, baseline ≈ 75 %) and ε = 0.1
    (right chart, baseline ≈ 55 %); both are time series that settle to a
    steady level per algorithm -- we report the steady aggregate and keep
    the full time series in the RunResults.
    """
    result = ExperimentResult(
        "Fig3a",
        f"delivery under lossy links (eps={error_rate})",
        "algorithm",
        list(algorithms),
    )
    configs = [
        base_config(seed=seed).replace(algorithm=algorithm, error_rate=error_rate)
        for algorithm in algorithms
    ]
    runs = map_scenarios(configs, jobs=jobs, campaign_dir=campaign_dir)
    result.curves["delivery_rate"] = [run.delivery_rate for run in runs]
    result.results["delivery_rate"] = runs
    return result


# ----------------------------------------------------------------------
# Figure 3(b): delivery under topological reconfiguration
# ----------------------------------------------------------------------
def fig3b_reconfiguration(
    interval: float = 0.2,
    algorithms: Sequence[str] = DELIVERY_ALGORITHMS,
    seed: int = 42,
    jobs=None,
    campaign_dir: Optional[str] = None,
) -> ExperimentResult:
    """Delivery with fully reliable links but a reconfiguring overlay.

    ρ = 0.2 s gives non-overlapping reconfigurations; ρ = 0.03 s gives the
    overlapping, "extreme test case".  The interesting output is both the
    aggregate and the *minimum* of the time series (the depth of the spikes
    that recovery is supposed to level out).
    """
    result = ExperimentResult(
        "Fig3b",
        f"delivery under reconfiguration (rho={interval}s)",
        "algorithm",
        list(algorithms),
    )
    configs = [
        base_config(seed=seed).replace(
            algorithm=algorithm,
            error_rate=0.0,
            reconfiguration_interval=interval,
        )
        for algorithm in algorithms
    ]
    runs = map_scenarios(configs, jobs=jobs, campaign_dir=campaign_dir)
    minima = []
    for config, run in zip(configs, runs):
        window = run.series.clipped(
            config.measure_start, config.effective_measure_end
        )
        minima.append(window.min_value())
    result.curves["delivery_rate"] = [run.delivery_rate for run in runs]
    result.curves["worst_bin"] = minima
    result.results["delivery_rate"] = runs
    return result


# ----------------------------------------------------------------------
# Figure 4: buffer size and gossip interval
# ----------------------------------------------------------------------
def fig4_buffer_sweep(
    algorithms: Sequence[str] = DELIVERY_ALGORITHMS,
    paper_betas: Sequence[int] = (500, 1000, 1500, 2500, 4000),
    seed: int = 42,
    jobs=None,
    campaign_dir: Optional[str] = None,
) -> ExperimentResult:
    """Delivery vs. buffer size β (paper sweeps 500..4000)."""
    base = base_config(seed=seed)
    return _run_curves(
        "Fig4-top",
        "delivery vs buffer size",
        "beta(paper)",
        list(paper_betas),
        algorithms,
        lambda algorithm: base.replace(algorithm=algorithm),
        lambda config, beta: config.replace(
            buffer_size=equivalent_buffer(config, beta)
        ),
        _delivery,
        jobs=jobs,
        campaign_dir=campaign_dir,
    )


def fig4_interval_sweep(
    algorithms: Sequence[str] = DELIVERY_ALGORITHMS,
    intervals: Sequence[float] = (0.01, 0.02, 0.03, 0.045, 0.055),
    seed: int = 42,
    jobs=None,
    campaign_dir: Optional[str] = None,
) -> ExperimentResult:
    """Delivery vs. gossip interval T (paper sweeps 0.01..0.055 s)."""
    base = base_config(seed=seed)
    return _run_curves(
        "Fig4-bottom",
        "delivery vs gossip interval",
        "T",
        list(intervals),
        algorithms,
        lambda algorithm: base.replace(algorithm=algorithm),
        lambda config, interval: config.replace(gossip_interval=interval),
        _delivery,
        jobs=jobs,
        campaign_dir=campaign_dir,
    )


# ----------------------------------------------------------------------
# Figure 5: interplay of T and beta (combined pull)
# ----------------------------------------------------------------------
def fig5_interval_buffer_grid(
    paper_betas: Sequence[int] = (500, 1500, 2500, 3500),
    intervals: Sequence[float] = (0.01, 0.02, 0.03, 0.045, 0.055),
    seed: int = 42,
    jobs=None,
    campaign_dir: Optional[str] = None,
) -> ExperimentResult:
    """Combined pull: delivery vs T, one curve per β."""
    base = base_config(seed=seed).replace(algorithm="combined-pull")
    result = ExperimentResult(
        "Fig5",
        "combined pull: delivery vs T for several beta",
        "T",
        list(intervals),
    )
    cells = [
        (beta, base.replace(
            buffer_size=equivalent_buffer(base, beta), gossip_interval=interval
        ))
        for beta in paper_betas
        for interval in intervals
    ]
    run_results = map_scenarios(
        [config for _, config in cells], jobs=jobs, campaign_dir=campaign_dir
    )
    for beta in paper_betas:
        runs = [
            run for (cell_beta, _), run in zip(cells, run_results)
            if cell_beta == beta
        ]
        result.curves[f"beta={beta}"] = [run.delivery_rate for run in runs]
        result.results[f"beta={beta}"] = runs
    return result


# ----------------------------------------------------------------------
# Figure 6: scalability in N
# ----------------------------------------------------------------------
def fig6_scalability(
    algorithms: Sequence[str] = DELIVERY_ALGORITHMS,
    sizes: Optional[Sequence[int]] = None,
    seed: int = 42,
    jobs=None,
    campaign_dir: Optional[str] = None,
) -> ExperimentResult:
    """Delivery vs. N, with β scaled linearly so persistence stays ~4 s.

    The paper keeps Π = 70 *constant* while N grows (that is why push
    improves with N: more dispatchers per pattern).
    """
    if sizes is None:
        sizes = (20, 60, 100, 140, 200) if scale_mode() == "paper" else (20, 40, 60, 80)
    base = base_config(seed=seed).replace(n_patterns=70)

    def apply_n(config: SimulationConfig, n: int) -> SimulationConfig:
        scaled = config.replace(n_dispatchers=n)
        return scaled.replace(buffer_size=scaled.buffer_for_persistence(4.0))

    return _run_curves(
        "Fig6",
        "delivery vs system size (Pi fixed at 70)",
        "N",
        list(sizes),
        algorithms,
        lambda algorithm: base.replace(algorithm=algorithm),
        apply_n,
        _delivery,
        jobs=jobs,
        campaign_dir=campaign_dir,
    )


# ----------------------------------------------------------------------
# Figure 7: receivers per event vs pi_max
# ----------------------------------------------------------------------
def fig7_receivers_per_event(
    pi_values: Sequence[int] = (1, 2, 5, 10, 15, 20, 25, 30),
    seed: int = 42,
    jobs=None,
    campaign_dir: Optional[str] = None,
) -> ExperimentResult:
    """Mean number of dispatchers receiving one event as πmax grows.

    Pure substrate measurement (no recovery, short reliable run): the
    paper reports ≈ 25 % of dispatchers at πmax = 5 and ≈ 80 % at 30.
    Π stays at the paper's 70 and N at 100 regardless of scale mode --
    the curve is a property of the workload model, and short reliable
    runs are cheap.
    """
    base = SimulationConfig(
        n_dispatchers=100,
        n_patterns=70,
        algorithm="none",
        error_rate=0.0,
        publish_rate=20.0,
        sim_time=1.5,
        measure_start=0.1,
        measure_end=1.2,
        buffer_size=100,
        seed=seed,
    )
    result = ExperimentResult(
        "Fig7",
        "receivers per event vs pi_max (N=100, Pi=70)",
        "pi_max",
        list(pi_values),
    )
    runs = map_scenarios(
        [base.replace(pi_max=pi_max) for pi_max in pi_values],
        jobs=jobs,
        campaign_dir=campaign_dir,
    )
    result.curves["receivers"] = [run.receivers_per_event for run in runs]
    result.results["receivers"] = runs
    return result


# ----------------------------------------------------------------------
# Figure 8: delivery vs pi_max under low and high load
# ----------------------------------------------------------------------
def fig8_patterns_delivery(
    load: str = "high",
    algorithms: Sequence[str] = ("none", "subscriber-pull", "push", "combined-pull"),
    pi_values: Sequence[int] = (1, 2, 4, 6, 10, 16),
    seed: int = 42,
    paper_beta: Optional[int] = None,
    jobs=None,
    campaign_dir: Optional[str] = None,
) -> ExperimentResult:
    """Delivery vs. πmax (paper: both charts derived with β = 4000).

    The chart's high-load punchline is a *buffer-overload* effect: β is
    held fixed while growing πmax multiplies each subscriber's event
    volume, so cache persistence collapses and recovery starves.  The
    effect is relative to the run length: the paper's β = 4000 persists
    ≈ 9 s of a 25 s run (36 %).  At bench scale (8 s runs) we therefore
    default to the persistence-fraction-equivalent β = 1200 (≈ 35 % of
    the run at πmax = 2); at paper scale, to the literal 4000.  Override
    with ``paper_beta``.
    """
    base = base_config(load=load, seed=seed)
    if paper_beta is None:
        # The low-load chart's point is flatness at an ample buffer: keep
        # the literal 4000 there.  The high-load chart's point is the
        # overload, which only materializes within a bench-scale run at
        # the persistence-fraction-equivalent buffer.
        if scale_mode() == "paper" or load == "low":
            paper_beta = 4000
        else:
            paper_beta = 1200
    beta = equivalent_buffer(base, paper_beta)
    return _run_curves(
        f"Fig8-{load}",
        f"delivery vs pi_max ({load} load, beta={paper_beta}-equivalent)",
        "pi_max",
        list(pi_values),
        algorithms,
        lambda algorithm: base.replace(algorithm=algorithm, buffer_size=beta),
        lambda config, pi_max: config.replace(pi_max=pi_max),
        _delivery,
        jobs=jobs,
        campaign_dir=campaign_dir,
    )


# ----------------------------------------------------------------------
# Figure 9: overhead vs N and vs pi_max
# ----------------------------------------------------------------------
def fig9a_overhead_scale(
    algorithms: Sequence[str] = OVERHEAD_ALGORITHMS,
    sizes: Optional[Sequence[int]] = None,
    seed: int = 42,
    jobs=None,
    campaign_dir: Optional[str] = None,
) -> ExperimentResult:
    """Gossip msgs/dispatcher (absolute) and gossip/event ratio vs N."""
    if sizes is None:
        sizes = (40, 80, 120, 160, 200) if scale_mode() == "paper" else (20, 40, 60, 80)
    base = base_config(seed=seed).replace(n_patterns=70)

    def apply_n(config: SimulationConfig, n: int) -> SimulationConfig:
        scaled = config.replace(n_dispatchers=n)
        return scaled.replace(buffer_size=scaled.buffer_for_persistence(4.0))

    result = ExperimentResult(
        "Fig9a", "overhead vs system size", "N", list(sizes)
    )
    cells = [
        (algorithm, apply_n(base.replace(algorithm=algorithm), n))
        for algorithm in algorithms
        for n in sizes
    ]
    run_results = map_scenarios(
        [config for _, config in cells], jobs=jobs, campaign_dir=campaign_dir
    )
    for algorithm in algorithms:
        runs = [
            run for (cell_algo, _), run in zip(cells, run_results)
            if cell_algo == algorithm
        ]
        result.curves[f"{algorithm}:msgs/disp"] = [
            run.gossip_per_dispatcher for run in runs
        ]
        result.curves[f"{algorithm}:ratio"] = [
            run.gossip_event_ratio for run in runs
        ]
        result.results[algorithm] = runs
    return result


def fig9b_overhead_patterns(
    algorithms: Sequence[str] = OVERHEAD_ALGORITHMS,
    pi_values: Sequence[int] = (1, 2, 5, 10, 20, 30),
    seed: int = 42,
    jobs=None,
    campaign_dir: Optional[str] = None,
) -> ExperimentResult:
    """Gossip msgs/dispatcher and gossip/event ratio vs πmax."""
    base = base_config(seed=seed)
    beta = equivalent_buffer(base, 4000)
    result = ExperimentResult(
        "Fig9b", "overhead vs subscriptions per dispatcher", "pi_max", list(pi_values)
    )
    cells = [
        (algorithm, base.replace(
            algorithm=algorithm, pi_max=pi_max, buffer_size=beta
        ))
        for algorithm in algorithms
        for pi_max in pi_values
    ]
    run_results = map_scenarios(
        [config for _, config in cells], jobs=jobs, campaign_dir=campaign_dir
    )
    for algorithm in algorithms:
        runs = [
            run for (cell_algo, _), run in zip(cells, run_results)
            if cell_algo == algorithm
        ]
        result.curves[f"{algorithm}:msgs/disp"] = [
            run.gossip_per_dispatcher for run in runs
        ]
        result.curves[f"{algorithm}:ratio"] = [
            run.gossip_event_ratio for run in runs
        ]
        result.results[algorithm] = runs
    return result


# ----------------------------------------------------------------------
# Figure 10: overhead vs error rate under both loads
# ----------------------------------------------------------------------
def fig10_overhead_error_rate(
    load: str = "high",
    algorithms: Sequence[str] = OVERHEAD_ALGORITHMS,
    error_rates: Sequence[float] = (0.01, 0.03, 0.05, 0.08, 0.1),
    seed: int = 42,
    jobs=None,
    campaign_dir: Optional[str] = None,
) -> ExperimentResult:
    """Gossip msgs/dispatcher vs ε.

    The paper's punchline: at low load and small ε the reactive pull sends
    a small fraction of push's traffic, because rounds with an empty Lost
    buffer are skipped while push gossips unconditionally.
    """
    base = base_config(load=load, seed=seed)
    return _run_curves(
        f"Fig10-{load}",
        f"overhead vs error rate ({load} load)",
        "eps",
        list(error_rates),
        algorithms,
        lambda algorithm: base.replace(algorithm=algorithm),
        lambda config, eps: config.replace(error_rate=eps),
        lambda run: run.gossip_per_dispatcher,
        jobs=jobs,
        campaign_dir=campaign_dir,
    )


# ----------------------------------------------------------------------
# Scalability extension: 10^3..10^5 dispatchers on the compact substrate
# ----------------------------------------------------------------------
def fig_scalability(
    sizes: Optional[Sequence[int]] = None,
    algorithm: str = "combined-pull",
    seed: int = 1,
    campaign_dir: Optional[str] = None,
) -> ExperimentResult:
    """Delivery, overhead, wall time and peak RSS as N grows to 10⁵.

    The paper stops at N = 200 (Figure 6); this extension rides the
    compact-state substrate -- scale-free overlay, aggregate workload
    model, auto-selected columnar cache layout -- to three orders of
    magnitude beyond.  The *system-wide* publish load is held at 200
    events/s across all sizes (the paper scales N under a fixed event
    rate, and each event costs O(N) delivery work plus O(subscribers)
    tracking state, so a fixed per-node rate would grow the sweep
    quadratically in both time and memory) while Π stays at the paper's
    70, so the per-pattern subscriber population grows with N exactly as
    in Figure 6's setup.

    Unlike the other experiments this one cannot fan out over worker
    processes: peak RSS (``ru_maxrss``) is a per-process high-water mark,
    so the points run sequentially in this process in ascending N order
    -- RSS grows with N, hence each reading is, to first order, the peak
    of its own point rather than a leftover from a smaller one.  Wall
    time is measured around each run individually.

    ``campaign_dir`` journals each point as it completes (with its wall
    and RSS readings attached as ``extra``), so a killed scale sweep --
    these are the expensive ones -- resumes from the largest completed N
    with the original measurements intact.
    """
    if sizes is None:
        sizes = (
            (1_000, 10_000, 100_000)
            if scale_mode() == "paper"
            else (500, 2_000, 10_000)
        )
    sizes = sorted(sizes)
    import resource
    import sys as _sys
    import time as _time

    from repro.scenarios.runner import run_scenario

    result = ExperimentResult(
        "FigS-scale",
        f"scale-out to N=10^5 ({algorithm}, scale-free overlay)",
        "N",
        list(sizes),
    )
    journal = None
    journaled = {}
    if campaign_dir is not None:
        from repro.campaign.journal import CampaignJournal

        journal = CampaignJournal(campaign_dir)
        journal.ensure()
        journaled = journal.load()

    runs: List[RunResult] = []
    walls: List[float] = []
    peaks_mb: List[float] = []
    for n in sizes:
        config = SimulationConfig(
            n_dispatchers=n,
            n_patterns=70,
            pi_max=2,
            publish_rate=200.0 / n,
            sim_time=3.0,
            measure_start=0.5,
            measure_end=2.5,
            buffer_size=32,
            gossip_interval=0.1,
            error_rate=0.1,
            algorithm=algorithm,
            tree_style="scale-free",
            workload_model="aggregate",
            seed=seed,
        )
        if journal is not None:
            from repro.scenarios.serialize import config_digest

            digest = config_digest(config)
            entry = journaled.get(digest)
            if entry is not None:
                # Resumed point: restore the original process's wall and
                # RSS readings (this process's high-water mark says
                # nothing about a run it never executed).
                extra = entry.extra or {}
                runs.append(entry.result)
                walls.append(extra.get("wall_seconds", 0.0))
                peaks_mb.append(extra.get("peak_rss_mb", 0.0))
                continue
        # Wall-clock reads time the run for reporting only; nothing feeds
        # back into simulation state.
        start = _time.perf_counter()  # repro-lint: disable=REP002
        runs.append(run_scenario(config))
        walls.append(round(_time.perf_counter() - start, 3))  # repro-lint: disable=REP002
        peak_kb = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss
        if _sys.platform == "darwin":  # pragma: no cover - bytes there
            peak_kb //= 1024
        peaks_mb.append(round(peak_kb / 1024, 1))
        if journal is not None:
            journal.record(
                runs[-1],
                extra={"wall_seconds": walls[-1], "peak_rss_mb": peaks_mb[-1]},
            )
    if journal is not None:
        journal.compact()
    result.curves["delivery_rate"] = [run.delivery_rate for run in runs]
    result.curves["messages_per_event"] = [
        round(
            sum(run.messages.values()) / max(run.events_published, 1), 2
        )
        for run in runs
    ]
    result.curves["wall_seconds"] = walls
    result.curves["peak_rss_mb"] = peaks_mb
    result.results["delivery_rate"] = runs
    result.notes = (
        "peak_rss_mb is the process high-water mark sampled after each "
        "point (ascending N, single process)"
    )
    return result


# ----------------------------------------------------------------------
# Figure X (extension): delivery under node churn
# ----------------------------------------------------------------------
def figX_churn_delivery(
    algorithms: Sequence[str] = ("push", "subscriber-pull", "combined-pull"),
    churn_rates: Sequence[float] = (0.0, 0.5, 1.0, 2.0),
    mean_downtime: float = 0.5,
    error_rate: float = 0.05,
    seed: int = 42,
    jobs=None,
    campaign_dir: Optional[str] = None,
) -> ExperimentResult:
    """Delivery vs. Poisson node-churn rate (beyond-the-paper extension).

    The paper's motivating scenarios (mobile and peer-to-peer networks)
    lose *nodes*, not just packets, but its evaluation stops at link loss
    and single-link reconfiguration.  This experiment crashes random
    dispatchers at ``churn_rates`` crashes/s (exponential downtimes of
    mean ``mean_downtime`` s, volatile buffers wiped on restart) on top of
    a mildly lossy network, with graceful degradation (per-peer timeout,
    backoff, suspicion) enabled whenever churn is active.  The x = 0 point
    is the fault-free reference.  Raw :class:`RunResult` objects keep the
    per-run :class:`~repro.faults.stats.FaultStats` for deeper inspection.
    """
    base = base_config(seed=seed).replace(error_rate=error_rate)

    def apply_rate(config: SimulationConfig, rate: float) -> SimulationConfig:
        if rate == 0.0:
            return config
        plan = FaultPlan(
            churn=ChurnProcess(
                rate=rate,
                mean_downtime=mean_downtime,
                start=config.measure_start,
            )
        )
        return config.replace(faults=plan, degradation=DegradationConfig())

    return _run_curves(
        "FigX-churn",
        f"delivery under node churn (eps={error_rate}, "
        f"downtime={mean_downtime}s)",
        "crashes/s",
        list(churn_rates),
        algorithms,
        lambda algorithm: base.replace(algorithm=algorithm),
        apply_rate,
        _delivery,
        jobs=jobs,
        campaign_dir=campaign_dir,
    )

"""Tests for the experiment definitions (scaling rules and plumbing).

The full experiments are exercised by ``benchmarks/``; here we verify the
cheap invariants: scale selection, the buffer-equivalence rule, and the
result container -- plus every figure end to end at miniature scale:
each cell runs the config its figure defines for that row and x, and
each curve is its metric read off the right results.
"""

from __future__ import annotations

import pytest

from repro.faults.plan import ChurnProcess, FaultPlan
from repro.recovery.degrade import DegradationConfig
from repro.scenarios import experiments
from repro.scenarios.config import SimulationConfig
from repro.scenarios.experiments import (
    ExperimentResult,
    base_config,
    equivalent_buffer,
    fig3a_lossy_delivery,
    scale_mode,
)

#: A drastically shrunk base configuration, so figures run as unit tests.
TINY = SimulationConfig(
    n_dispatchers=10,
    n_patterns=8,
    publish_rate=10.0,
    sim_time=2.0,
    measure_start=0.3,
    measure_end=1.2,
    buffer_size=60,
)


@pytest.fixture
def tiny_base(monkeypatch):
    monkeypatch.delenv("REPRO_PAPER_SCALE", raising=False)
    monkeypatch.setattr(
        experiments, "base_config", lambda load="high", seed=42: TINY
    )


class TestScaling:
    def test_default_mode_is_bench(self, monkeypatch):
        monkeypatch.delenv("REPRO_PAPER_SCALE", raising=False)
        assert scale_mode() == "bench"
        config = base_config()
        assert config.n_dispatchers == 50
        assert config.n_patterns == 35

    def test_paper_scale_env(self, monkeypatch):
        monkeypatch.setenv("REPRO_PAPER_SCALE", "1")
        assert scale_mode() == "paper"
        config = base_config()
        assert config.n_dispatchers == 100
        assert config.n_patterns == 70
        assert config.sim_time == 25.0
        assert config.buffer_size == 1500

    def test_subscribers_per_pattern_preserved(self, monkeypatch):
        monkeypatch.delenv("REPRO_PAPER_SCALE", raising=False)
        bench = base_config()
        paper = SimulationConfig()
        assert bench.subscribers_per_pattern == pytest.approx(
            paper.subscribers_per_pattern, rel=0.01
        )

    def test_load_variants(self, monkeypatch):
        monkeypatch.delenv("REPRO_PAPER_SCALE", raising=False)
        assert base_config("high").publish_rate == 50.0
        assert base_config("low").publish_rate == 5.0
        with pytest.raises(ValueError):
            base_config("medium")

    def test_equivalent_buffer_preserves_persistence(self, monkeypatch):
        monkeypatch.delenv("REPRO_PAPER_SCALE", raising=False)
        bench = base_config()
        paper = SimulationConfig()
        for paper_beta in (500, 1500, 4000):
            bench_beta = equivalent_buffer(bench, paper_beta)
            paper_seconds = paper_beta / paper.estimated_cache_fill_rate()
            bench_seconds = bench_beta / bench.estimated_cache_fill_rate()
            assert bench_seconds == pytest.approx(paper_seconds, rel=0.05)

    def test_equivalent_buffer_monotone(self):
        bench = base_config()
        betas = [equivalent_buffer(bench, b) for b in (500, 1500, 4000)]
        assert betas == sorted(betas)
        assert betas[0] < betas[-1]


class TestExperimentResult:
    def test_container_accessors(self):
        result = ExperimentResult(
            "FigT", "title", "x", [1, 2], curves={"c": [0.1, 0.2]}
        )
        assert result.curve("c") == [0.1, 0.2]
        assert result.final("c") == 0.2
        assert "FigT" in result.to_table()


class TestMiniatureExperiment:
    def test_fig3a_runs_with_subset(self, tiny_base):
        result = fig3a_lossy_delivery(
            error_rate=0.2, algorithms=("none", "combined-pull")
        )
        rates = dict(zip(result.x_values, result.curves["delivery_rate"]))
        assert rates["combined-pull"] > rates["none"]


# ----------------------------------------------------------------------
# Every figure at miniature scale
# ----------------------------------------------------------------------
PAIR = ("push", "combined-pull")


def _delivery(run):
    return run.delivery_rate


def _gossip(run):
    return run.gossip_per_dispatcher


def _ratio(run):
    return run.gossip_event_ratio


def _worst_bin(run):
    window = run.series.clipped(
        run.config.measure_start, run.config.effective_measure_end
    )
    return window.min_value()


def _messages_per_event(run):
    return round(sum(run.messages.values()) / max(run.events_published, 1), 2)


def _at_size(config, n):
    scaled = config.replace(n_dispatchers=n)
    return scaled.replace(buffer_size=scaled.buffer_for_persistence(4.0))


def _churn(config, rate):
    if rate == 0.0:
        return config
    plan = FaultPlan(
        churn=ChurnProcess(rate=rate, mean_downtime=0.5, start=config.measure_start)
    )
    return config.replace(faults=plan, degradation=DegradationConfig())


FIG7_BASE = SimulationConfig(
    n_dispatchers=100,
    n_patterns=70,
    algorithm="none",
    error_rate=0.0,
    publish_rate=20.0,
    sim_time=1.5,
    measure_start=0.1,
    measure_end=1.2,
    buffer_size=100,
)

FIGS_BASE = SimulationConfig(
    n_patterns=70,
    pi_max=2,
    sim_time=3.0,
    measure_start=0.5,
    measure_end=2.5,
    buffer_size=32,
    gossip_interval=0.1,
    error_rate=0.1,
    algorithm="combined-pull",
    tree_style="scale-free",
    workload_model="aggregate",
    seed=1,
)


#: name -> (figure, kwargs, x values, {results key: row's config per x},
#: {curve name: (results key, metric)}).  The keys and curve names are the
#: figure's public output; a metric of None marks a curve that is not a
#: function of the results (Fig S's wall time and RSS readings).
FIGURES = {
    "fig3a": (
        "fig3a_lossy_delivery",
        dict(error_rate=0.2, algorithms=PAIR),
        list(PAIR),
        {"delivery_rate": lambda a: TINY.replace(algorithm=a, error_rate=0.2)},
        {"delivery_rate": ("delivery_rate", _delivery)},
    ),
    "fig3b": (
        "fig3b_reconfiguration",
        dict(interval=0.1, algorithms=PAIR),
        list(PAIR),
        {
            "delivery_rate": lambda a: TINY.replace(
                algorithm=a, error_rate=0.0, reconfiguration_interval=0.1
            )
        },
        {
            "delivery_rate": ("delivery_rate", _delivery),
            "worst_bin": ("delivery_rate", _worst_bin),
        },
    ),
    "fig4_buffer": (
        "fig4_buffer_sweep",
        dict(algorithms=PAIR, paper_betas=(500, 4000)),
        [500, 4000],
        {
            a: lambda beta, a=a: TINY.replace(
                algorithm=a, buffer_size=equivalent_buffer(TINY, beta)
            )
            for a in PAIR
        },
        {a: (a, _delivery) for a in PAIR},
    ),
    "fig4_interval": (
        "fig4_interval_sweep",
        dict(algorithms=PAIR, intervals=(0.02, 0.05)),
        [0.02, 0.05],
        {
            a: lambda t, a=a: TINY.replace(algorithm=a, gossip_interval=t)
            for a in PAIR
        },
        {a: (a, _delivery) for a in PAIR},
    ),
    "fig5": (
        "fig5_interval_buffer_grid",
        dict(paper_betas=(500, 2500), intervals=(0.02, 0.05)),
        [0.02, 0.05],
        {
            f"beta={beta}": lambda t, beta=beta: TINY.replace(
                algorithm="combined-pull",
                buffer_size=equivalent_buffer(TINY, beta),
                gossip_interval=t,
            )
            for beta in (500, 2500)
        },
        {f"beta={beta}": (f"beta={beta}", _delivery) for beta in (500, 2500)},
    ),
    "fig6": (
        "fig6_scalability",
        dict(algorithms=PAIR, sizes=(10, 14)),
        [10, 14],
        {
            a: lambda n, a=a: _at_size(
                TINY.replace(algorithm=a, n_patterns=70), n
            )
            for a in PAIR
        },
        {a: (a, _delivery) for a in PAIR},
    ),
    "fig7": (
        "fig7_receivers_per_event",
        dict(pi_values=(1, 3)),
        [1, 3],
        {"receivers": lambda pi: FIG7_BASE.replace(pi_max=pi)},
        {"receivers": ("receivers", lambda run: run.receivers_per_event)},
    ),
    "fig8": (
        "fig8_patterns_delivery",
        dict(algorithms=PAIR, pi_values=(1, 2)),
        [1, 2],
        {
            a: lambda pi, a=a: TINY.replace(
                algorithm=a, pi_max=pi, buffer_size=equivalent_buffer(TINY, 1200)
            )
            for a in PAIR
        },
        {a: (a, _delivery) for a in PAIR},
    ),
    "fig9a": (
        "fig9a_overhead_scale",
        dict(sizes=(10, 14)),
        [10, 14],
        {
            a: lambda n, a=a: _at_size(
                TINY.replace(algorithm=a, n_patterns=70), n
            )
            for a in PAIR
        },
        {
            name: (a, metric)
            for a in PAIR
            for name, metric in ((f"{a}:msgs/disp", _gossip), (f"{a}:ratio", _ratio))
        },
    ),
    "fig9b": (
        "fig9b_overhead_patterns",
        dict(pi_values=(1, 2)),
        [1, 2],
        {
            a: lambda pi, a=a: TINY.replace(
                algorithm=a, pi_max=pi, buffer_size=equivalent_buffer(TINY, 4000)
            )
            for a in PAIR
        },
        {
            name: (a, metric)
            for a in PAIR
            for name, metric in ((f"{a}:msgs/disp", _gossip), (f"{a}:ratio", _ratio))
        },
    ),
    "fig10": (
        "fig10_overhead_error_rate",
        dict(error_rates=(0.01, 0.1)),
        [0.01, 0.1],
        {
            a: lambda eps, a=a: TINY.replace(algorithm=a, error_rate=eps)
            for a in PAIR
        },
        {a: (a, _gossip) for a in PAIR},
    ),
    "fig_scalability": (
        "fig_scalability",
        dict(sizes=(40, 20)),
        [20, 40],
        {
            "delivery_rate": lambda n: FIGS_BASE.replace(
                n_dispatchers=n, publish_rate=200.0 / n
            )
        },
        {
            "delivery_rate": ("delivery_rate", _delivery),
            "messages_per_event": ("delivery_rate", _messages_per_event),
            "wall_seconds": ("delivery_rate", None),
            "peak_rss_mb": ("delivery_rate", None),
        },
    ),
    "figX": (
        "figX_churn_delivery",
        dict(algorithms=PAIR, churn_rates=(0.0, 1.0)),
        [0.0, 1.0],
        {
            a: lambda rate, a=a: _churn(
                TINY.replace(algorithm=a, error_rate=0.05), rate
            )
            for a in PAIR
        },
        {a: (a, _delivery) for a in PAIR},
    ),
}


def test_every_figure_is_covered():
    covered = {spec[0] for spec in FIGURES.values()}
    public = {name for name in experiments.__all__ if name.startswith("fig")}
    assert covered == public


@pytest.mark.parametrize("name", sorted(FIGURES))
def test_figure_cells_and_curves(name, tiny_base):
    function, kwargs, x_values, rows, curves = FIGURES[name]
    result = getattr(experiments, function)(**kwargs)

    assert result.x_values == x_values
    assert list(result.results) == list(rows)
    for row, config_at in rows.items():
        assert [run.config for run in result.results[row]] == [
            config_at(x) for x in x_values
        ], row

    assert list(result.curves) == list(curves)
    for curve, (row, metric) in curves.items():
        assert len(result.curves[curve]) == len(x_values), curve
        if metric is not None:
            expected = [metric(run) for run in result.results[row]]
            assert result.curves[curve] == expected, curve

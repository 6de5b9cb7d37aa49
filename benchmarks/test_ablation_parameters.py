"""Ablations over the parameters the paper leaves unspecified.

DESIGN.md Section 2 documents our defaults for P_forward (0.8), P_source
(0.5), and the out-of-band channel loss (0.0).  These benchmarks sweep
each and record how sensitive the headline result is to the choice --
the reproduction-honesty companion to the figure benchmarks.
"""

from __future__ import annotations

from benchmarks._helpers import JOBS
from repro.analysis.tables import format_series_table
from repro.scenarios.experiments import base_config
from repro.scenarios.sweep import run_grid


def _delivery_curves(algorithms, field, values):
    """Delivery rate per value of ``field``, one curve per algorithm."""
    grid = run_grid(
        {
            algorithm: [
                base_config().replace(algorithm=algorithm, **{field: value})
                for value in values
            ]
            for algorithm in algorithms
        },
        jobs=JOBS,
    )
    return {name: [run.delivery_rate for run in runs] for name, runs in grid.items()}


def test_p_forward_sweep():
    values = (0.2, 0.5, 0.8, 1.0)
    curves = _delivery_curves(("push", "combined-pull"), "p_forward", values)
    print()
    print(format_series_table("p_forward", list(values), curves, "Ablation: P_forward"))
    # Both algorithms degrade when gossip is pruned too aggressively.
    for name, curve in curves.items():
        assert curve[-1] > curve[0], name
    # Push suffers more from aggressive pruning: its gossip must travel
    # multiple pruned hops, while pull digests short-circuit early.
    push_span = curves["push"][-1] - curves["push"][0]
    pull_span = curves["combined-pull"][-1] - curves["combined-pull"][0]
    assert push_span > pull_span - 0.02


def test_p_source_sweep():
    values = (0.0, 0.25, 0.5, 0.75, 1.0)
    curves = _delivery_curves(("combined-pull",), "p_source", values)
    print()
    print(format_series_table("p_source", list(values), curves, "Ablation: P_source"))
    curve = curves["combined-pull"]
    # The mix dominates (or matches) both pure extremes -- the paper's
    # rationale for combining: the endpoints are each weak somewhere.
    best_mix = max(curve[1:-1])
    assert best_mix >= curve[0] - 0.02
    assert best_mix >= curve[-1] - 0.02


def test_oob_loss_sweep():
    values = (0.0, 0.1, 0.3)
    curves = _delivery_curves(("combined-pull", "push"), "oob_error_rate", values)
    print()
    print(
        format_series_table(
            "oob_error_rate", list(values), curves, "Ablation: out-of-band loss"
        )
    )
    # Recovery tolerates an unreliable out-of-band channel gracefully:
    # repeated gossip rounds compensate, so moderate loss costs only a
    # few points of delivery.
    for name, curve in curves.items():
        assert curve[0] >= curve[-1], name
        assert curve[0] - curve[1] < 0.10, name


def test_tree_style_sensitivity():
    styles = ("bushy", "uniform")
    curves = _delivery_curves(("none", "combined-pull"), "tree_style", styles)
    print()
    print(
        format_series_table(
            "tree_style", list(styles), curves, "Ablation: overlay shape"
        )
    )
    # Deeper (uniform) trees lose more on the way -- the baseline drops --
    # while recovery absorbs most of the difference.
    none_drop = curves["none"][0] - curves["none"][1]
    pull_drop = curves["combined-pull"][0] - curves["combined-pull"][1]
    assert none_drop > 0.0
    assert pull_drop < none_drop + 0.02

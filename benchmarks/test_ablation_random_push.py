"""Ablation: random push -- the control the paper drops.

Section IV: "Simulations of a similar random push approach are omitted
since their performance is extremely poor."  We implemented it anyway;
this benchmark substantiates the claim: random push barely improves on
the no-recovery baseline while tree-steered push closes most of the gap
to full delivery.
"""

from __future__ import annotations

from benchmarks._helpers import JOBS, run_once
from repro.scenarios.experiments import fig3a_lossy_delivery


def test_random_push_is_extremely_poor():
    result = run_once(
        fig3a_lossy_delivery,
        error_rate=0.1,
        algorithms=("none", "random-push", "push"),
        jobs=JOBS,
    )
    rates = dict(zip(result.x_values, result.curves["delivery_rate"]))
    gap_random = rates["random-push"] - rates["none"]
    gap_push = rates["push"] - rates["none"]
    # Random push recovers something, but a small fraction of what the
    # tree-steered push recovers -- the paper's justification for omitting
    # its curves.
    assert gap_random < gap_push * 0.5
    assert rates["push"] > 0.85

"""Ablation: seed-to-seed variance (Section IV-A's justification for
reporting single runs).

Paper: "The results of 10 simulations ran with different random seeds
showed that ... variations are limited, around 1%-2%.  Hence, we present
here the results of a single simulation."  We rerun the default scenario
(combined pull, ε = 0.1) under ten seeds and check the coefficient of
variation of the delivery rate lands in that band.
"""

from __future__ import annotations

from benchmarks._helpers import JOBS
from repro.scenarios.experiments import base_config
from repro.scenarios.replication import run_replications


def test_seed_variance_is_one_to_two_percent():
    config = base_config().replace(algorithm="combined-pull")
    summary = run_replications(config, seeds=list(range(1, 11)), jobs=JOBS)
    print(
        f"\ndelivery over 10 seeds: mean={summary.mean:.4f} "
        f"std={summary.std:.4f} cv={summary.coefficient_of_variation:.2%} "
        f"range=[{summary.minimum:.4f}, {summary.maximum:.4f}]"
    )
    # The paper's band, with headroom for our smaller bench scale (smaller
    # systems fluctuate a little more).
    assert summary.coefficient_of_variation < 0.05
    # And the spread is genuinely nonzero -- seeds do change the runs.
    assert summary.maximum > summary.minimum

"""Ablation: recovery latency of push vs. pull.

Section IV-C: "as known from the literature on epidemic algorithms [8],
the push approach has a bigger recovery latency than pull.  Moreover, in
our push approach each gossip round involves only one of the potentially
many patterns matching an event ... Instead, the pull approach gossips
more precise information about the lost event, and hence exhibits a
smaller latency."  This benchmark measures both latencies directly.
"""

from __future__ import annotations

from benchmarks._helpers import JOBS
from repro.parallel import map_scenarios
from repro.scenarios.experiments import base_config


def test_pull_recovers_faster_than_push():
    base = base_config()
    push, pull = map_scenarios(
        [base.replace(algorithm="push"), base.replace(algorithm="combined-pull")],
        jobs=JOBS,
    )
    push_latency = push.delivery.mean_recovery_latency
    pull_latency = pull.delivery.mean_recovery_latency
    print(
        f"\nmean recovery latency: push={push_latency*1000:.0f} ms, "
        f"combined pull={pull_latency*1000:.0f} ms"
    )
    assert push.delivery.recovered > 0
    assert pull.delivery.recovered > 0
    # The paper's claim: pull's targeted digests recover faster.
    assert pull_latency < push_latency

"""Ablation: cache eviction policies (the paper's buffer-optimization
future work, after Ozkasap et al. [13]).

The paper uses plain FIFO.  We compare FIFO against LRU (recovery hits
keep hot events alive) and uniform-random eviction under a deliberately
tight buffer, where the policy actually matters.
"""

from __future__ import annotations

from benchmarks._helpers import JOBS
from repro.analysis.tables import format_table
from repro.parallel import map_scenarios
from repro.scenarios.experiments import base_config, equivalent_buffer

POLICIES = ("fifo", "lru", "random")


def test_cache_policy_comparison():
    base = base_config().replace(algorithm="combined-pull")
    # A tight buffer (paper-equivalent beta=500): ~1.4 s of persistence.
    tight = base.replace(buffer_size=equivalent_buffer(base, 500))
    runs = map_scenarios(
        [tight.replace(cache_policy=policy) for policy in POLICIES], jobs=JOBS
    )
    results = dict(zip(POLICIES, runs))
    rows = [
        (
            policy,
            f"{run.delivery_rate:.4f}",
            f"{run.delivery.mean_recovery_latency*1000:.0f}ms",
            run.losses_recovered,
        )
        for policy, run in results.items()
    ]
    print()
    print(
        format_table(
            ["policy", "delivery", "recovery latency", "recovered"],
            rows,
            title="Ablation: cache eviction policy (tight buffer)",
        )
    )
    # All policies keep the system functional...
    for policy, run in results.items():
        assert run.delivery_rate > run.baseline_rate, policy
    # ...and no alternative policy collapses relative to the paper's FIFO
    # (the point of the ablation: the FIFO choice is not load-bearing).
    fifo = results["fifo"].delivery_rate
    for policy in ("lru", "random"):
        assert results[policy].delivery_rate > fifo - 0.08, policy

"""Ablation: gossip-only dissemination (the hpcast-style design of
Section V) vs. content-based routing plus epidemic recovery.

The paper's critique of using gossip as the *only* routing mechanism:
overhead even without faults (non-interested nodes relay and cache
everything, duplicates abound), probabilistic delivery even without
faults, and full events (not digests) in every gossip message.

We run both designs on a *reliable* network -- where the paper's approach
needs no recovery at all -- and on the lossy default, and compare
delivered fraction against bits moved.
"""

from __future__ import annotations

from benchmarks._helpers import JOBS
from repro.analysis.tables import format_table
from repro.scenarios.experiments import base_config
from repro.scenarios.sweep import run_grid

ERROR_RATES = (0.0, 0.1)


def _traffic(run):
    """Total transmissions, with dissemination batches weighted by the
    events they carry (a batch of k events costs k event-sized messages)."""
    return (
        run.messages["sent_event"]
        + run.messages["sent_gossip"]
        + run.oob_messages
    )


def test_gossip_only_dissemination_tradeoff():
    base = base_config().replace(gossip_interval=0.02)
    grid = run_grid(
        {
            algorithm: [
                base.replace(algorithm=algorithm, error_rate=eps)
                for eps in ERROR_RATES
            ]
            for algorithm in ("combined-pull", "gossip-dissemination")
        },
        jobs=JOBS,
    )
    results = {
        (algorithm, eps): run
        for algorithm, runs in grid.items()
        for eps, run in zip(ERROR_RATES, runs)
    }
    rows = [
        (
            algorithm,
            eps,
            f"{run.delivery_rate:.4f}",
            run.messages["sent_event"],
            run.messages["sent_gossip"],
        )
        for (algorithm, eps), run in results.items()
    ]
    print()
    print(
        format_table(
            ["design", "eps", "delivery", "event msgs", "gossip msgs"],
            rows,
            title="Ablation: gossip-only dissemination vs routed + recovery",
        )
    )
    # On a reliable network the routed design is perfect by construction;
    # gossip-only dissemination already loses events (drawback 2).
    assert results[("combined-pull", 0.0)].delivery_rate == 1.0
    assert results[("gossip-dissemination", 0.0)].delivery_rate < 0.999
    # And the routed design wins or ties on delivery under loss too.
    assert (
        results[("combined-pull", 0.1)].delivery_rate
        >= results[("gossip-dissemination", 0.1)].delivery_rate - 0.02
    )
    # Dissemination sends zero event messages -- gossip is its transport.
    assert results[("gossip-dissemination", 0.1)].messages["sent_event"] == 0

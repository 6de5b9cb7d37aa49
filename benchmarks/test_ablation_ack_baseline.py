"""Ablation: the idealized acknowledgment comparator (Section V).

The paper rejects Gryphon-style acknowledgment schemes [20] for dynamic
scenarios.  Our idealized ``ack`` algorithm (global recipient knowledge,
publisher-driven out-of-band retransmissions) quantifies the trade:

* it achieves essentially full delivery -- it is an upper bound; but
* its recovery traffic is paid on *every* delivery (ACKs), so on a mostly
  reliable network it costs far more than reactive pull, which only
  communicates when something was actually lost.
"""

from __future__ import annotations

from benchmarks._helpers import JOBS
from repro.analysis.tables import format_table
from repro.scenarios.experiments import base_config
from repro.scenarios.sweep import run_grid

ERROR_RATES = (0.01, 0.1)


def _recovery_traffic(run):
    return run.oob_messages + run.messages["sent_gossip"]


def test_ack_upper_bound_and_its_cost():
    grid = run_grid(
        {
            algorithm: [
                base_config().replace(algorithm=algorithm, error_rate=eps)
                for eps in ERROR_RATES
            ]
            for algorithm in ("ack", "combined-pull")
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
            _recovery_traffic(run),
            f"{run.recovery_load_skew:.2f}",
        )
        for (algorithm, eps), run in results.items()
    ]
    print()
    print(
        format_table(
            ["algorithm", "eps", "delivery", "recovery msgs", "load skew"],
            rows,
            title="Ablation: idealized ACK scheme vs combined pull",
        )
    )
    # The ACK scheme is an upper bound on delivery...
    for eps in (0.01, 0.1):
        assert results[("ack", eps)].delivery_rate > 0.99
        assert (
            results[("ack", eps)].delivery_rate
            >= results[("combined-pull", eps)].delivery_rate - 0.005
        )
    # ...but on a near-reliable network it pays recovery traffic per
    # delivery while pull pays per loss.
    assert _recovery_traffic(results[("ack", 0.01)]) > 3 * _recovery_traffic(
        results[("combined-pull", 0.01)]
    )

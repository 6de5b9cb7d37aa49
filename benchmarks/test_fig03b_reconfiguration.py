"""Figure 3(b): event delivery under topological reconfigurations.

Paper: links are fully reliable; every ρ seconds a tree link breaks and is
replaced 0.1 s later.  With ρ = 0.2 s (non-overlapping) the delivery rate
without recovery dips as low as ~70 % around reconfigurations; with
ρ = 0.03 s (overlapping) it drops to ~60 %.  Push and combined pull "cut
all the negative spikes", keeping delivery near 100 % (never below ~95 %
even in the overlapping case).
"""

from __future__ import annotations

from benchmarks._helpers import JOBS, run_once
from repro.scenarios.experiments import fig3b_reconfiguration


def _by_algorithm(result, curve):
    return dict(zip(result.x_values, result.curves[curve]))


def test_fig3b_non_overlapping():
    result = run_once(fig3b_reconfiguration, interval=0.2, jobs=JOBS)
    rates = _by_algorithm(result, "delivery_rate")
    worst = _by_algorithm(result, "worst_bin")
    # Reconfigurations cost the baseline real deliveries...
    assert rates["none"] < 0.995
    assert worst["none"] < 0.93
    # ...and the paper's best algorithms level the spikes out.
    for name in ("push", "combined-pull"):
        assert rates[name] > rates["none"]
        assert rates[name] > 0.98, name
        assert worst[name] > worst["none"], name


def test_fig3b_overlapping():
    result = run_once(fig3b_reconfiguration, interval=0.03, jobs=JOBS)
    rates = _by_algorithm(result, "delivery_rate")
    worst = _by_algorithm(result, "worst_bin")
    # The extreme case: overlapping reconfigurations hurt the baseline more
    # than non-overlapping ones (cross-checked against the other test's
    # band) and recovery still masks most of the disruption.
    assert rates["none"] < 0.99
    assert worst["none"] < 0.9
    for name in ("push", "combined-pull"):
        assert rates[name] > rates["none"], name
        assert rates[name] > 0.95, name
        assert worst[name] > 0.85, name

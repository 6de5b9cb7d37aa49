"""Figure 4 (bottom): effect of the gossip interval T on delivery.

Paper: T swept from 0.01 s to 0.055 s.  Subscriber-based pull has a limit
at about 78 %; push and combined pull are the best solutions, with push
improving much faster as gossip rounds become more frequent, and the
combined pull holding up better as the interval between rounds grows.
"""

from __future__ import annotations

from benchmarks._helpers import JOBS, run_once
from repro.scenarios.experiments import fig4_interval_sweep


def test_fig4_gossip_interval():
    result = run_once(fig4_interval_sweep, jobs=JOBS)
    curves = result.curves

    # Fastest gossip (first x) vs slowest (last x).
    for name in ("push", "combined-pull"):
        fastest, slowest = curves[name][0], curves[name][-1]
        # More frequent gossip never hurts delivery materially.
        assert fastest >= slowest - 0.01, name

    # Push is the more interval-sensitive algorithm.
    push_span = curves["push"][0] - curves["push"][-1]
    combined_span = curves["combined-pull"][0] - curves["combined-pull"][-1]
    assert push_span >= combined_span - 0.02

    # Subscriber pull plateaus below combined pull at every T.
    for sub, combined in zip(curves["subscriber-pull"], curves["combined-pull"]):
        assert sub <= combined + 0.01

    # Recovery beats the baseline at every interval.
    for name in ("push", "combined-pull", "publisher-pull", "random-pull"):
        for recovered, baseline in zip(curves[name], curves["none"]):
            assert recovered > baseline, name

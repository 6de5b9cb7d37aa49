"""Figure 6: delivery as the system size N increases.

Paper: N swept 20..200 with Π fixed at 70 and β scaled linearly with N so
events persist ~4 s regardless of scale.  Push and combined pull stay at
the top across sizes (good scalability); the pull variants alone are more
scale-sensitive, with publisher-based pull the best at small N; push
"becomes more convenient as the system size increases" (more dispatchers
per pattern to gossip with).
"""

from __future__ import annotations

from benchmarks._helpers import JOBS, run_once
from repro.scenarios.experiments import fig6_scalability


def test_fig6_scalability():
    result = run_once(fig6_scalability, jobs=JOBS)
    curves = result.curves

    # Push and combined pull beat the baseline at every size.
    for name in ("push", "combined-pull"):
        for recovered, baseline in zip(curves[name], curves["none"]):
            assert recovered > baseline, name

    # Push improves (or holds) as N grows: compare the smallest and the
    # largest sizes, relative to the no-recovery baseline at that size
    # (the baseline itself drifts as trees deepen).
    push_gain_small = curves["push"][0] - curves["none"][0]
    push_gain_large = curves["push"][-1] - curves["none"][-1]
    assert push_gain_large > push_gain_small - 0.03

    # At the smallest size the publisher-based variant is the stronger
    # lone-pull (the paper: "the publisher-based one being the best when
    # the number of nodes is limited" -- few subscribers per pattern).
    assert curves["publisher-pull"][0] >= curves["subscriber-pull"][0]

    # Scalability: combined pull's delivery does not collapse with N.
    combined = curves["combined-pull"]
    assert min(combined) > max(combined) - 0.12

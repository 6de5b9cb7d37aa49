"""Figure 9(a): gossip overhead vs. the system size N.

Paper: the number of gossip messages sent by each dispatcher grows with N
but "well below a linear trend" (gossip effort per node is local; only the
hop count grows, logarithmically).  The gossip/event ratio *decreases*
with N -- event forwarding is a multicast that must reach all recipients,
while gossip touches only a fraction -- falling from ≈ 28 % at 40 nodes to
≈ 20 % at 200 nodes.
"""

from __future__ import annotations

from benchmarks._helpers import JOBS, run_once
from repro.scenarios.experiments import fig9a_overhead_scale


def test_fig9a_overhead_vs_size():
    result = run_once(fig9a_overhead_scale, jobs=JOBS)
    sizes = result.x_values
    for algorithm in ("push", "combined-pull"):
        absolute = result.curves[f"{algorithm}:msgs/disp"]
        ratio = result.curves[f"{algorithm}:ratio"]

        # Sublinear growth of per-dispatcher gossip: quadrupling N far
        # less than quadruples the per-dispatcher message count.
        growth = absolute[-1] / max(absolute[0], 1e-9)
        scale = sizes[-1] / sizes[0]
        assert growth < scale * 0.75, algorithm

        # The gossip/event ratio decreases with N.
        assert ratio[-1] < ratio[0], algorithm
        # And sits in the paper's ballpark band (tens of percent).
        assert 0.02 < ratio[-1] < 0.6, algorithm

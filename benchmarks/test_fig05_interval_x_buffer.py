"""Figure 5: interplay of gossip interval T and buffer size β
(combined pull).

Paper: "increments in the buffer size do not bear any significant impact
after a given threshold", and "the sensitivity ... to changes in T is
greater when the buffer size is smaller" (a big buffer compensates for
less frequent gossip).
"""

from __future__ import annotations

from benchmarks._helpers import JOBS, run_once
from repro.scenarios.experiments import fig5_interval_buffer_grid


def _span(curve):
    values = [v for v in curve if v is not None]
    return max(values) - min(values)


def test_fig5_interval_buffer_interplay():
    result = run_once(fig5_interval_buffer_grid, jobs=JOBS)
    curves = result.curves
    smallest = curves["beta=500"]
    mid = curves["beta=1500"]
    largest = curves["beta=3500"]

    # Bigger buffers help at every interval (weakly).
    for small_v, large_v in zip(smallest, largest):
        assert large_v >= small_v - 0.02

    # Diminishing returns: the step 500 -> 1500 buys more than the step
    # 1500 -> 3500.
    gain_low = sum(m - s for s, m in zip(smallest, mid))
    gain_high = sum(l - m for m, l in zip(mid, largest))
    assert gain_low >= gain_high - 0.02

    # Sensitivity to T is greater when the buffer is smaller.
    assert _span(smallest) >= _span(largest) - 0.02

"""Figure 4 (top): effect of the buffer size β on delivery.

Paper: β swept from 500 to 4000 (1.3 s to 9.2 s of cache persistence).
Subscriber-based pull "cannot improve beyond a given limit" regardless of
β; push "relies more heavily on the persistence of events in the buffer"
and keeps improving as β grows, eventually overtaking combined pull, while
combined pull is the better of the two at small buffers.
"""

from __future__ import annotations

from benchmarks._helpers import JOBS, curve_pairs, run_once
from repro.scenarios.experiments import fig4_buffer_sweep


def test_fig4_buffer_size():
    result = run_once(fig4_buffer_sweep, jobs=JOBS)
    curves = result.curves

    def final(name):
        return curves[name][-1]

    def first(name):
        return curves[name][0]

    # The baseline is flat: β is irrelevant without recovery.
    none_curve = curves["none"]
    assert max(none_curve) - min(none_curve) < 0.05

    # Push gains substantially from a bigger buffer...
    assert final("push") > first("push") + 0.03
    # ...and ends at/near the top.
    assert final("push") >= final("subscriber-pull")

    # Subscriber pull plateaus well below the combined approach.
    assert final("subscriber-pull") < final("combined-pull") - 0.02
    # Its plateau: growing beta four-fold buys it little.
    assert final("subscriber-pull") - first("subscriber-pull") < 0.1

    # Combined pull is less buffer-hungry than push: at the smallest
    # buffer it does at least as well.
    assert first("combined-pull") >= first("push") - 0.02

    # Everything with recovery beats the baseline at every point.
    for name in ("push", "combined-pull", "subscriber-pull", "publisher-pull"):
        for (_, recovered), (_, baseline) in zip(
            curve_pairs(result, name), curve_pairs(result, "none")
        ):
            assert recovered > baseline

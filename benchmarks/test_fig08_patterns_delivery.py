"""Figure 8: delivery as πmax (subscribers per pattern) increases, under
low (top chart) and high (bottom chart) publish load.  Both charts were
derived with β = 4000.

Paper: under low load push and combined pull are basically flat in πmax.
Under high load, growing πmax multiplies the events each dispatcher must
cache, so the fixed β becomes insufficient and "performance decreases
significantly for all solutions" beyond πmax ≈ 6.  (The buffer-overload
effect is relative to run length; the experiment scales β so its
persistence *fraction* matches the paper's -- see
``fig8_patterns_delivery`` and EXPERIMENTS.md.)
"""

from __future__ import annotations

from benchmarks._helpers import JOBS, run_once
from repro.scenarios.experiments import fig8_patterns_delivery

PI_VALUES = (1, 2, 4, 8, 12)


def test_fig8_low_load():
    result = run_once(
        fig8_patterns_delivery, load="low", pi_values=PI_VALUES, jobs=JOBS
    )
    curves = result.curves
    for name in ("push", "combined-pull"):
        values = curves[name]
        # Flat: under low load the buffer never fills, pi_max is harmless.
        assert max(values) - min(values) < 0.08, name
        for recovered, baseline in zip(values, curves["none"]):
            assert recovered > baseline, name


def test_fig8_high_load():
    result = run_once(
        fig8_patterns_delivery, load="high", pi_values=PI_VALUES, jobs=JOBS
    )
    curves = result.curves
    # Under high load, large pi_max overloads the fixed buffer: delivery
    # at the largest pi_max falls below the best point of the curve (the
    # paper's drop is steep at its scale; ours is damped, see
    # EXPERIMENTS.md).
    for name in ("push", "combined-pull"):
        values = curves[name]
        assert values[-1] < max(values) - 0.015, name
    # Still better than no recovery everywhere.
    for name in ("push", "combined-pull", "subscriber-pull"):
        for recovered, baseline in zip(curves[name], curves["none"]):
            assert recovered >= baseline - 0.01, name
    # Subscriber-based pull gains from more subscribers per pattern at
    # small pi_max (more caches to pull from).
    sub = curves["subscriber-pull"]
    assert sub[1] >= sub[0] - 0.02

"""Figure 7: dispatchers receiving an event as πmax grows.

Paper (N = 100, Π = 70, events matching at most 3 patterns): πmax = 5
already reaches about 25 % of dispatchers; πmax = 30 reaches about 80 %,
"essentially making communication more akin to a broadcast".
"""

from __future__ import annotations

from benchmarks._helpers import JOBS, run_once
from repro.scenarios.experiments import fig7_receivers_per_event


def test_fig7_receivers_per_event():
    result = run_once(fig7_receivers_per_event, jobs=JOBS)
    receivers = dict(zip(result.x_values, result.curves["receivers"]))
    n = 100  # the experiment pins N = 100 like the paper

    # Monotone growth in pi_max.
    values = result.curves["receivers"]
    assert all(a < b for a, b in zip(values, values[1:]))

    # The paper's two calibration points (generous bands: our event sizes
    # are uniform in {1,2,3} where the paper's exact mix is unstated).
    assert 0.12 * n < receivers[5] < 0.40 * n
    assert 0.55 * n < receivers[30] < 0.95 * n

    # The default pi_max=2 yields the N_pi-consistent fanout: about
    # 2 patterns/event * 2.86 subscribers/pattern, minus overlap.
    assert 3.0 < receivers[2] < 9.0

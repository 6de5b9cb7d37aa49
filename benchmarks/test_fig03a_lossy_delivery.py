"""Figure 3(a): event delivery under lossy links.

Paper (Section IV-B): with ε = 0.05 the no-recovery baseline sits around
75 %; with ε = 0.1 around 55 %.  Neither pull variant alone reaches a
satisfactory rate; combined pull and push come close to full delivery
(≈ 98 % at ε = 0.05, ≈ 90 % at ε = 0.1).  Random pull sits in between;
(random push is so poor the paper omits it -- see the ablation benchmark).
"""

from __future__ import annotations

from benchmarks._helpers import JOBS, run_once
from repro.scenarios.experiments import fig3a_lossy_delivery


def _rates(result):
    return dict(zip(result.x_values, result.curves["delivery_rate"]))


def test_fig3a_low_error_rate():
    result = run_once(fig3a_lossy_delivery, error_rate=0.05, jobs=JOBS)
    rates = _rates(result)
    # Baseline band (tree-shape dependent; paper: ~75 %).
    assert 0.60 < rates["none"] < 0.90
    # Every algorithm improves on the baseline.
    for name, rate in rates.items():
        if name != "none":
            assert rate > rates["none"], name
    # The paper's winners approach full delivery.
    assert rates["push"] > 0.9
    assert rates["combined-pull"] > 0.9


def test_fig3a_high_error_rate():
    result = run_once(fig3a_lossy_delivery, error_rate=0.1, jobs=JOBS)
    rates = _rates(result)
    # Baseline band (paper: ~55 %; shallower bench tree sits a bit higher).
    assert 0.45 < rates["none"] < 0.75
    for name, rate in rates.items():
        if name != "none":
            assert rate > rates["none"] + 0.05, name
    # Combined pull dominates each pull variant alone.
    assert rates["combined-pull"] >= rates["subscriber-pull"]
    assert rates["combined-pull"] >= rates["publisher-pull"] - 0.01
    # Subscriber-based pull alone is the weakest recovery (its plateau).
    recovery = {k: v for k, v in rates.items() if k != "none"}
    assert min(recovery, key=recovery.get) == "subscriber-pull"
    # Push and combined pull deliver the large majority of events.
    assert rates["push"] > 0.85
    assert rates["combined-pull"] > 0.85

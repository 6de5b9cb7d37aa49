"""Figure 10: gossip overhead vs. the link error rate, under high (top)
and low (bottom) publish load.

Paper: the reactive pull "triggers communication only when a recovery is
needed while the proactive push gossips continuously".  At low load and
ε = 0.01 (baseline delivery ≈ 95 %), pull's overhead is about one third of
push's; as ε grows the gap narrows.  Push's overhead is essentially flat
in ε.
"""

from __future__ import annotations

from benchmarks._helpers import JOBS, run_once
from repro.scenarios.experiments import fig10_overhead_error_rate


def test_fig10_high_load():
    result = run_once(fig10_overhead_error_rate, load="high", jobs=JOBS)
    push = result.curves["push"]
    pull = result.curves["combined-pull"]
    # Push gossips unconditionally: its overhead is ~flat in eps.
    assert max(push) < min(push) * 1.5 + 1.0
    # Pull overhead grows with eps (more losses, fewer skipped rounds).
    assert pull[-1] > pull[0]


def test_fig10_low_load():
    result = run_once(fig10_overhead_error_rate, load="low", jobs=JOBS)
    push = result.curves["push"]
    pull = result.curves["combined-pull"]
    # The paper's headline: at the smallest error rate under low load,
    # pull wastes far less bandwidth than push (paper: about 3x less).
    assert pull[0] < push[0] / 2.0
    # Push is still ~flat.
    assert max(push) < min(push) * 1.5 + 1.0
    # Pull's overhead rises toward push's as the network degrades.
    assert pull[-1] > pull[0] * 1.5

"""Ablation: the adaptive gossip interval (Section IV-E's suggested
extension, after PlanetP [14]).

Claim to check: on a mostly reliable network, adapting T removes push's
idle gossip (approaching pull's low overhead) while keeping delivery
essentially intact on lossy networks.
"""

from __future__ import annotations

from benchmarks._helpers import JOBS
from repro.parallel import map_scenarios
from repro.scenarios.experiments import base_config


def _run(algorithms, error_rate, load):
    """One run per algorithm, all at ``error_rate`` under ``load``."""
    base = base_config(load=load).replace(error_rate=error_rate)
    return map_scenarios(
        [base.replace(algorithm=algorithm) for algorithm in algorithms],
        jobs=JOBS,
    )


def test_adaptive_push_cuts_idle_overhead():
    fixed, adaptive = _run(("push", "adaptive-push"), error_rate=0.01, load="low")
    print(
        f"\nfixed-T push: {fixed.gossip_per_dispatcher:.0f} msgs/disp, "
        f"delivery {fixed.delivery_rate:.3f}"
    )
    print(
        f"adaptive push: {adaptive.gossip_per_dispatcher:.0f} msgs/disp, "
        f"delivery {adaptive.delivery_rate:.3f}"
    )
    # On a near-reliable network the adaptive variant gossips far less...
    assert adaptive.gossip_per_dispatcher < fixed.gossip_per_dispatcher * 0.6
    # ...without giving up meaningful delivery.
    assert adaptive.delivery_rate > fixed.delivery_rate - 0.05


def test_adaptive_push_still_recovers_under_loss():
    baseline, adaptive = _run(
        ("none", "adaptive-push"), error_rate=0.1, load="high"
    )
    print(
        f"\nbaseline {baseline.delivery_rate:.3f} -> "
        f"adaptive push {adaptive.delivery_rate:.3f}"
    )
    assert adaptive.delivery_rate > baseline.delivery_rate + 0.1

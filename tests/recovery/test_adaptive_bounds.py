"""Tests for the adaptive-interval controller's bounds and direction."""

from __future__ import annotations

import pytest

from repro.recovery.adaptive import ADAPTIVE_MAX_INTERVAL, ADAPTIVE_MIN_INTERVAL
from repro.recovery.base import RecoveryConfig
from repro.topology.generator import path_tree
from tests.recovery.harness import RecoveryHarness


def make_harness(**config_overrides):
    config = RecoveryConfig(gossip_interval=0.05, p_forward=1.0, **config_overrides)
    return RecoveryHarness(
        path_tree(2), "adaptive-push", {0: (1,), 1: (1,)}, config=config
    )


class TestAdaptiveBounds:
    def test_interval_never_exceeds_max(self):
        harness = make_harness()
        harness.publish(0, (1,))
        harness.run_for(5.0)  # long idle stretch: interval keeps growing
        for recovery in harness.recoveries:
            assert recovery.timer.period <= ADAPTIVE_MAX_INTERVAL + 1e-9

    def test_interval_growth_is_multiplicative(self):
        harness = make_harness()
        harness.publish(0, (1,))
        recovery = harness.recovery(0)
        start = recovery.timer.period
        harness.run_for(1.0)
        assert recovery.timer.period > start
        assert recovery.interval_changes >= 1

    def test_demand_shrinks_interval(self):
        harness = make_harness()
        recovery = harness.recovery(0)
        # Grow the interval first.
        harness.publish(0, (1,))
        harness.run_for(2.0)
        grown = recovery.timer.period
        # Now fake sustained demand: a request lands before every round,
        # so each round shrinks the interval.
        event = harness.publish(0, (1,))
        for _ in range(40):
            recovery.handle_oob_request((event.event_id,), from_node=1)
            harness.run_for(0.02)
        assert recovery.timer.period < grown

    def test_interval_never_below_min(self):
        harness = make_harness()
        recovery = harness.recovery(0)
        event = harness.publish(0, (1,))
        for _ in range(30):
            recovery.handle_oob_request((event.event_id,), from_node=1)
            harness.run_for(0.05)
        assert recovery.timer.period >= ADAPTIVE_MIN_INTERVAL - 1e-9

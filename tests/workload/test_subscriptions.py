"""Tests for subscription assignment."""

from __future__ import annotations

import random

import pytest

from repro.pubsub.pattern import PatternSpace
from repro.workload.subscriptions import assign_subscriptions, subscribers_per_pattern


class TestAssignment:
    def test_exact_count_per_node(self):
        space = PatternSpace(70)
        assignment = assign_subscriptions(100, 2, space, random.Random(1))
        assert set(assignment) == set(range(100))
        for patterns in assignment.values():
            assert len(patterns) == 2
            assert len(set(patterns)) == 2

    def test_zero_pi_max(self):
        space = PatternSpace(70)
        assignment = assign_subscriptions(10, 0, space, random.Random(0))
        assert all(patterns == () for patterns in assignment.values())

    def test_pi_max_exceeding_space_rejected(self):
        with pytest.raises(ValueError):
            assign_subscriptions(10, 71, PatternSpace(70), random.Random(0))

    def test_negative_pi_max_rejected(self):
        with pytest.raises(ValueError):
            assign_subscriptions(10, -1, PatternSpace(70), random.Random(0))

    def test_deterministic_per_seed(self):
        space = PatternSpace(20)
        a = assign_subscriptions(30, 3, space, random.Random(7))
        b = assign_subscriptions(30, 3, space, random.Random(7))
        assert a == b

    def test_empirical_subscribers_per_pattern_matches_formula(self):
        # The paper's N_pi = N*pi_max/Pi: 100 * 2 / 70 = 2.857...
        space = PatternSpace(70)
        assignment = assign_subscriptions(100, 2, space, random.Random(3))
        counts = [0] * 70
        for patterns in assignment.values():
            for pattern in patterns:
                counts[pattern] += 1
        mean = sum(counts) / len(counts)
        assert mean == pytest.approx(subscribers_per_pattern(100, 2, 70))
        assert mean == pytest.approx(2.857, abs=0.01)


class TestFormula:
    def test_figure2_value(self):
        assert subscribers_per_pattern(100, 2, 70) == pytest.approx(2.857, abs=0.001)

    def test_invalid_pattern_count(self):
        with pytest.raises(ValueError):
            subscribers_per_pattern(100, 2, 0)

"""Random subscription assignment.

The paper: *"Each dispatcher can subscribe to a maximum number πmax of
event patterns, drawn randomly from the overall number Π of patterns
available in the system ... it is possible to calculate the number of
subscribers per pattern as Nπ = (N πmax)/Π"* -- the formula implies each
dispatcher holds exactly πmax distinct patterns, which is what
:func:`assign_subscriptions` draws.
"""

from __future__ import annotations

import random
from typing import Dict, Tuple

from repro.pubsub.pattern import PatternSpace

__all__ = ["assign_subscriptions", "subscribers_per_pattern"]


def assign_subscriptions(
    node_count: int,
    pi_max: int,
    pattern_space: PatternSpace,
    rng: random.Random,
) -> Dict[int, Tuple[int, ...]]:
    """Draw each dispatcher's subscription set.

    Returns ``{node_id: (patterns...)}`` with distinct patterns per node.
    """
    if pi_max < 0:
        raise ValueError(f"pi_max must be >= 0, got {pi_max}")
    if pi_max > pattern_space.size:
        raise ValueError(
            f"pi_max={pi_max} exceeds the pattern space Π={pattern_space.size}"
        )
    assignment: Dict[int, Tuple[int, ...]] = {}
    for node_id in range(node_count):
        assignment[node_id] = pattern_space.sample_subscription(pi_max, rng)
    return assignment


def subscribers_per_pattern(
    node_count: int, pi_max: int, pattern_count: int
) -> float:
    """The paper's Nπ = (N · πmax) / Π (≈ 2.85 with Figure 2 defaults)."""
    if pattern_count <= 0:
        raise ValueError("pattern_count must be positive")
    return node_count * pi_max / pattern_count

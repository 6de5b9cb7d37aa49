"""Recovery-completeness property: with favourable parameters (reliable
gossip after the loss window, P_forward = 1, generous buffers), combined
pull eventually recovers *every detected* loss, and subscribers end up
with every event a later event on the same stream made detectable.
"""

from __future__ import annotations

import random

from hypothesis import given, settings, strategies as st

from repro.recovery.base import RecoveryConfig
from repro.topology.generator import random_tree
from tests.conftest import has_received
from tests.recovery.harness import RecoveryHarness

CONFIG = RecoveryConfig(gossip_interval=0.05, p_forward=1.0)


@settings(max_examples=15, deadline=None)
@given(
    n=st.integers(min_value=3, max_value=10),
    seed=st.integers(min_value=0, max_value=10_000),
    publishes=st.integers(min_value=4, max_value=12),
)
def test_all_detected_losses_recovered(n, seed, publishes):
    rng = random.Random(seed)
    tree = random_tree(n, rng, max_degree=4)
    # Every dispatcher subscribes to one of two patterns: losses are
    # always detectable once a later event arrives on the stream.
    subscriptions = {node: (node % 2,) for node in range(n)}
    harness = RecoveryHarness(
        tree,
        "combined-pull",
        subscriptions,
        pattern_count=4,
        buffer_size=500,
        seed=seed,
        config=CONFIG,
    )
    publisher = rng.randrange(n)
    edges = tree.edges
    published = []
    for index in range(publishes):
        patterns = (0, 1) if index % 3 == 0 else (index % 2,)
        if rng.random() < 0.5:
            dead = [edges[rng.randrange(len(edges))]]
            published.append(
                harness.publish_lossy(publisher, patterns, dead_links=dead)
            )
        else:
            published.append(harness.publish(publisher, patterns))
        harness.run_for(0.05)
    # A final, fully reliable event on each stream reveals any trailing
    # gaps, then a generous recovery window.
    published.append(harness.publish(publisher, (0, 1)))
    harness.run_for(4.0)

    for recovery in harness.recoveries:
        assert recovery.detector.pending() == 0, (
            f"node {recovery.node_id} still has "
            f"{recovery.detector.entries_for_source(publisher)} pending"
        )
    # Every subscriber holds the full stream it subscribes to: each
    # published event matching its pattern.
    for node in range(n):
        if node == publisher:
            continue
        dispatcher = harness.system.dispatchers[node]
        pattern = node % 2
        missing = [
            event.event_id
            for event in published
            if event.matches(pattern) and not has_received(dispatcher, event)
        ]
        assert not missing, (
            f"node {node} (pattern {pattern}) missing {missing} "
            f"of {len(published)} published"
        )

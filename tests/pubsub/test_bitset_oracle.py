"""Differential tests: the bitset route oracle against the per-pattern one.

:meth:`PubSubSystem.rebuild_routes` lays every table in one pass over
Π-bit pattern sets; :func:`rebuild_routes_reference` is the per-pattern
tree walk it replaced.  Both must leave every table in the same state --
directions, forwarded marks, sizes and pattern pools -- on trees, on
scale-free overlays, on hubs past 64 directions (one machine word), on
overlays split into components, and again after a link change (the
reconfiguration-repair path).
"""

from __future__ import annotations

import random

from hypothesis import given, settings, strategies as st

from repro.pubsub.pattern import PatternSpace
from repro.sim.engine import Simulator
from repro.topology.generator import random_tree, star_tree
from repro.topology.graphs import graph_tree
from tests.conftest import build_system
from tests.pubsub.reference_oracle import rebuild_routes_reference

N_PATTERNS = 12


def table_state(system, tree):
    """Everything a table answers, for every node, pattern and neighbor
    the node has had (the tree's links, including removed ones)."""
    state = []
    for dispatcher in system.dispatchers:
        table = dispatcher.table
        neighbors = tree.neighbors(dispatcher.node_id)
        per_pattern = [
            (
                tuple(table.directions(pattern)),
                tuple(table.was_forwarded(pattern, m) for m in neighbors),
            )
            for pattern in range(N_PATTERNS)
        ]
        state.append(
            (len(table), table.patterns(), table.local_patterns(), per_pattern)
        )
    return state


def check_against_reference(tree, seed, cuts=0):
    rng = random.Random(seed)
    space = PatternSpace(N_PATTERNS)
    bitset = build_system(Simulator(), tree, space)
    reference = build_system(Simulator(), tree, space)
    for node in range(tree.node_count):
        for pattern in space.sample_subscription(rng.randint(0, 4), rng):
            bitset.subscribe(node, pattern, via_protocol=False)
            reference.subscribe(node, pattern, via_protocol=False)
    edges = list(tree.edges)
    for a, b in rng.sample(edges, min(cuts, len(edges))):
        bitset.network.remove_link(a, b)
        reference.network.remove_link(a, b)
    bitset.rebuild_routes()
    rebuild_routes_reference(reference)
    assert table_state(bitset, tree) == table_state(reference, tree)
    if edges:
        # A repair after a link change: both oracles rebuild in place.
        a, b = rng.choice(edges)
        for system in (bitset, reference):
            if system.network.has_link(a, b):
                system.network.remove_link(a, b)
            else:
                system.network.add_link(a, b)
        bitset.rebuild_routes()
        rebuild_routes_reference(reference)
        assert table_state(bitset, tree) == table_state(reference, tree)


@settings(max_examples=30, deadline=None)
@given(n=st.integers(min_value=1, max_value=40), seed=st.integers(),
       cuts=st.integers(min_value=0, max_value=3))
def test_random_trees_match_reference(n, seed, cuts):
    tree = random_tree(n, random.Random(seed), max_degree=4)
    check_against_reference(tree, seed, cuts)


@settings(max_examples=15, deadline=None)
@given(n=st.integers(min_value=3, max_value=120), seed=st.integers(),
       cuts=st.integers(min_value=0, max_value=2))
def test_scale_free_overlays_match_reference(n, seed, cuts):
    tree = graph_tree(n, random.Random(seed))
    check_against_reference(tree, seed, cuts)


@settings(max_examples=10, deadline=None)
@given(leaves=st.integers(min_value=60, max_value=90), seed=st.integers(),
       cuts=st.integers(min_value=0, max_value=8))
def test_star_hub_past_dense_switch_matches_reference(leaves, seed, cuts):
    # The hub has up to 90 directions: more than 64 take masks wider
    # than one machine word, and ``load`` reads them back per pattern.
    check_against_reference(star_tree(leaves + 1), seed, cuts)

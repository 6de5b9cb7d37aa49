"""Protocol-based subscription forwarding must converge to the oracle.

The oracle (:meth:`PubSubSystem.rebuild_routes`) computes subscription
tables directly from ground truth; the protocol lays them down with real
SUBSCRIBE/UNSUBSCRIBE messages.  On a reliable network the two must agree
exactly -- this is the equivalence that justifies using the oracle to model
the completion of route reconstruction after reconfigurations.
"""

from __future__ import annotations

import random

from hypothesis import given, settings, strategies as st

from repro.pubsub.pattern import PatternSpace
from repro.sim.engine import Simulator
from repro.topology.generator import path_tree, random_tree, star_tree
from tests.conftest import build_system


def tables_snapshot(system):
    """Each table's routes and its forwarded marks, the latter as sorted
    ``(pattern, node)`` pairs: the subscription to ``pattern`` was
    forwarded to ``node``."""
    nodes = range(system.node_count)
    patterns = range(system.pattern_space.size)
    return [
        (
            {pattern: tuple(directions) for pattern, directions in dispatcher.table},
            [
                (pattern, node)
                for pattern in patterns
                for node in nodes
                if dispatcher.table.was_forwarded(pattern, node)
            ],
        )
        for dispatcher in system.dispatchers
    ]


def build_pair(n, seed, pattern_count=10):
    """Two identical systems over the same tree: one for protocol, one for
    oracle."""
    rng = random.Random(seed)
    tree = random_tree(n, rng, max_degree=4)
    space = PatternSpace(pattern_count)
    sim_a, sim_b = Simulator(), Simulator()
    protocol = build_system(sim_a, tree, space)
    oracle = build_system(sim_b, tree, space)
    return rng, space, sim_a, protocol, oracle


class TestSubscribeEquivalence:
    @settings(max_examples=25, deadline=None)
    @given(n=st.integers(min_value=2, max_value=30), seed=st.integers())
    def test_random_subscriptions_match_oracle(self, n, seed):
        rng, space, sim, protocol, oracle = build_pair(n, seed)
        assignment = {
            node: space.sample_subscription(rng.randint(0, 3), rng)
            for node in range(n)
        }
        for node, patterns in assignment.items():
            for pattern in patterns:
                protocol.subscribe(node, pattern, via_protocol=True)
        sim.run()
        oracle.apply_subscriptions(assignment)
        assert tables_snapshot(protocol) == tables_snapshot(oracle)

    @settings(max_examples=20, deadline=None)
    @given(seed=st.integers())
    def test_interleaved_subscriptions_converge(self, seed):
        # Subscriptions issued at different times (messages in flight
        # between them) still converge to the oracle state.
        rng, space, sim, protocol, oracle = build_pair(15, seed)
        assignment = {node: set() for node in range(15)}
        time = 0.0
        for _ in range(25):
            node = rng.randrange(15)
            pattern = rng.randrange(10)
            assignment[node].add(pattern)
            time += rng.random() * 0.01
            sim.schedule_at(
                time, protocol.subscribe, node, pattern, True
            )
        sim.run()
        oracle.apply_subscriptions({k: tuple(v) for k, v in assignment.items()})
        assert tables_snapshot(protocol) == tables_snapshot(oracle)

    def test_single_subscriber_routes_point_at_it(self):
        rng, space, sim, protocol, oracle = build_pair(6, 3)
        protocol.subscribe(4, 7, via_protocol=True)
        sim.run()
        oracle.apply_subscriptions({4: (7,)})
        assert tables_snapshot(protocol) == tables_snapshot(oracle)
        # Every other dispatcher has exactly one direction for pattern 7.
        for dispatcher in protocol.dispatchers:
            if dispatcher.node_id != 4:
                assert len(dispatcher.table.directions(7)) == 1


class TestUnsubscribeEquivalence:
    @settings(max_examples=20, deadline=None)
    @given(n=st.integers(min_value=2, max_value=25), seed=st.integers())
    def test_subscribe_then_unsubscribe_subset(self, n, seed):
        rng, space, sim, protocol, oracle = build_pair(n, seed)
        assignment = {
            node: set(space.sample_subscription(rng.randint(0, 3), rng))
            for node in range(n)
        }
        for node, patterns in assignment.items():
            for pattern in patterns:
                protocol.subscribe(node, pattern, via_protocol=True)
        sim.run()
        removed = []
        for node, patterns in assignment.items():
            for pattern in list(patterns):
                if rng.random() < 0.5:
                    removed.append((node, pattern))
        for node, pattern in removed:
            assignment[node].discard(pattern)
            protocol.unsubscribe(node, pattern, via_protocol=True)
        sim.run()
        oracle.apply_subscriptions({k: tuple(v) for k, v in assignment.items()})
        assert tables_snapshot(protocol) == tables_snapshot(oracle)

    def test_full_unsubscribe_empties_all_tables(self):
        rng, space, sim, protocol, oracle = build_pair(10, 9)
        for node in range(10):
            protocol.subscribe(node, 3, via_protocol=True)
        sim.run()
        for node in range(10):
            protocol.unsubscribe(node, 3, via_protocol=True)
        sim.run()
        assert all(len(d.table) == 0 for d in protocol.dispatchers)

    def test_resubscribe_after_unsubscribe(self):
        rng, space, sim, protocol, oracle = build_pair(8, 4)
        protocol.subscribe(2, 5, via_protocol=True)
        sim.run()
        protocol.unsubscribe(2, 5, via_protocol=True)
        sim.run()
        protocol.subscribe(6, 5, via_protocol=True)
        sim.run()
        oracle.apply_subscriptions({6: (5,)})
        assert tables_snapshot(protocol) == tables_snapshot(oracle)


class TestOracleComposesWithProtocol:
    """Routes installed by the oracle, then changed by protocol messages,
    end where an all-protocol run ends: the oracle's forwarded marks make
    the protocol suppress and repeat exactly the messages it would have."""

    @settings(max_examples=20, deadline=None)
    @given(n=st.integers(min_value=2, max_value=25), seed=st.integers())
    def test_protocol_changes_after_oracle_install(self, n, seed):
        rng, space, sim, protocol, composed = build_pair(n, seed)
        assignment = {
            node: set(space.sample_subscription(rng.randint(0, 3), rng))
            for node in range(n)
        }
        for node, patterns in assignment.items():
            for pattern in patterns:
                protocol.subscribe(node, pattern, via_protocol=True)
        sim.run()
        composed.apply_subscriptions(assignment)
        changes = []
        for _ in range(2 * n):
            node, pattern = rng.randrange(n), rng.randrange(10)
            subscribe = pattern not in assignment[node]
            if subscribe:
                assignment[node].add(pattern)
            else:
                assignment[node].discard(pattern)
            changes.append((node, pattern, subscribe))
        for system in (protocol, composed):
            for node, pattern, subscribe in changes:
                if subscribe:
                    system.subscribe(node, pattern, via_protocol=True)
                else:
                    system.unsubscribe(node, pattern, via_protocol=True)
            system.sim.run()
        assert tables_snapshot(composed) == tables_snapshot(protocol)


class TestOracleOnTopologies:
    def test_star_routes(self):
        sim = Simulator()
        space = PatternSpace(5)
        system = build_system(sim, star_tree(5), space)
        system.apply_subscriptions({1: (0,), 2: (0,), 3: (), 4: ()})
        center = system.dispatchers[0]
        assert center.table.directions(0) == [1, 2]
        leaf = system.dispatchers[3]
        assert leaf.table.directions(0) == [0]

    def test_path_routes(self):
        sim = Simulator()
        space = PatternSpace(5)
        system = build_system(sim, path_tree(5), space)
        system.apply_subscriptions({0: (2,), 4: (2,)})
        assert system.dispatchers[2].table.directions(2) == [1, 3]

    def test_rebuild_after_manual_topology_change(self):
        # Break the path 0-1-2 into 0-2 via new link: routes must follow.
        sim = Simulator()
        space = PatternSpace(5)
        system = build_system(sim, path_tree(3), space)
        system.apply_subscriptions({0: (1,), 2: (1,)})
        network = system.network
        network.remove_link(1, 2)
        network.add_link(0, 2)
        system.rebuild_routes()
        assert system.dispatchers[0].table.directions(1) == [
            -1,
            2,
        ]  # LOCAL + toward 2
        assert system.dispatchers[1].table.directions(1) == [0]
        assert system.dispatchers[2].table.directions(1) == [-1, 0]

    def test_oracle_on_disconnected_overlay(self):
        # With a broken link the oracle only lays routes inside components.
        sim = Simulator()
        space = PatternSpace(5)
        system = build_system(sim, path_tree(4), space)
        system.network.remove_link(1, 2)
        system.apply_subscriptions({0: (1,), 3: (1,)})
        assert system.dispatchers[1].table.directions(1) == [0]
        assert system.dispatchers[2].table.directions(1) == [3]

"""Tests for the large-scale graph generator.

Covers degree-distribution sanity (power-law tail for Barabási–Albert),
connectivity, determinism under a fixed RNG stream, spanning-tree
extraction, and the ``build_tree`` / ``SimulationConfig`` wiring.
"""

from __future__ import annotations

import random

import pytest

from repro.topology.generator import build_tree
from repro.topology.graphs import (
    SCALE_FREE_ATTACH,
    barabasi_albert_edges,
    bfs_spanning_tree,
    degree_sequence,
    graph_tree,
)
from repro.topology.tree import TreeError, is_tree


class TestBarabasiAlbert:
    def test_edge_count_and_connectivity(self):
        n, m = 500, 2
        edges = barabasi_albert_edges(n, random.Random(7), attach=m)
        # Star seed contributes m edges; every later node contributes m.
        assert len(edges) == m + (n - m - 1) * m
        tree = bfs_spanning_tree(n, edges)
        assert tree.node_count == n  # connected: spanning tree exists

    def test_power_law_tail(self):
        """Preferential attachment produces hubs a degree-capped random
        tree cannot: a heavy tail with max degree far above the mean."""
        n = 2000
        edges = barabasi_albert_edges(n, random.Random(11), attach=2)
        degrees = degree_sequence(n, edges)
        mean = sum(degrees) / n
        assert max(degrees) > 8 * mean
        # Most nodes stay near the minimum degree (the tail is thin).
        near_min = sum(1 for d in degrees if d <= 3)
        assert near_min > n / 2
        assert min(degrees) >= 2

    def test_determinism_under_fixed_stream(self):
        first = barabasi_albert_edges(300, random.Random(42), attach=3)
        second = barabasi_albert_edges(300, random.Random(42), attach=3)
        assert first == second
        different = barabasi_albert_edges(300, random.Random(43), attach=3)
        assert first != different

    def test_parameter_validation(self):
        with pytest.raises(ValueError, match="attach"):
            barabasi_albert_edges(10, random.Random(1), attach=0)
        with pytest.raises(ValueError, match="nodes"):
            barabasi_albert_edges(2, random.Random(1), attach=2)


class TestSpanningTree:
    def test_extracts_valid_tree(self):
        edges = barabasi_albert_edges(150, random.Random(21), attach=2)
        tree = bfs_spanning_tree(150, edges)
        assert is_tree(tree.node_count, tree.edges)
        # Every tree edge comes from the graph.
        graph_edges = {(min(a, b), max(a, b)) for a, b in edges}
        assert set(tree.edges) <= graph_edges

    def test_disconnected_graph_raises(self):
        with pytest.raises(TreeError, match="disconnected"):
            bfs_spanning_tree(4, [(0, 1), (2, 3)])

    def test_deterministic(self):
        edges = barabasi_albert_edges(100, random.Random(2))
        assert bfs_spanning_tree(100, edges).edges == bfs_spanning_tree(
            100, edges
        ).edges


class TestWiring:
    def test_graph_tree_styles(self):
        tree = graph_tree(80, random.Random(6))
        assert tree.node_count == 80
        assert is_tree(80, tree.edges)
        # The spanning tree of the m = SCALE_FREE_ATTACH graph.
        edges = barabasi_albert_edges(80, random.Random(6), attach=SCALE_FREE_ATTACH)
        assert tree.edges == bfs_spanning_tree(80, edges).edges

    def test_graph_tree_single_node(self):
        assert graph_tree(1, random.Random(0)).node_count == 1

    def test_build_tree_dispatch(self):
        tree = build_tree("scale-free", 60, random.Random(4))
        assert tree.node_count == 60
        assert tree.edges == graph_tree(60, random.Random(4)).edges
        # Hubs are allowed: graph styles ignore the tree degree cap.
        assert tree.max_degree() >= 1
        with pytest.raises(ValueError, match="unknown tree style"):
            build_tree("small-world", 60, random.Random(4))

    def test_simulation_config_wiring(self):
        from repro.scenarios.builder import Simulation
        from repro.scenarios.config import SimulationConfig

        config = SimulationConfig(
            n_dispatchers=40,
            n_patterns=16,
            pi_max=2,
            publish_rate=10.0,
            sim_time=1.0,
            measure_start=0.2,
            measure_end=0.8,
            buffer_size=30,
            tree_style="scale-free",
            seed=3,
        )
        sim = Simulation(config)
        assert sim.tree.node_count == 40
        result = sim.run()
        assert result.delivery.delivery_rate > 0.0


class TestApproxPathLength:
    def test_matches_exact_on_small_trees(self):
        tree = build_tree("bushy", 50, random.Random(8))
        exact = tree.average_path_length()
        assert tree.approx_average_path_length(max_sources=64) == exact

    def test_close_to_exact_when_sampling(self):
        tree = build_tree("bushy", 300, random.Random(8))
        exact = tree.average_path_length()
        approx = tree.approx_average_path_length(max_sources=32)
        assert abs(approx - exact) / exact < 0.1

    def test_deterministic(self):
        tree = build_tree("bushy", 300, random.Random(8))
        assert tree.approx_average_path_length() == tree.approx_average_path_length()

"""Tests for the tree structure and graph utilities, cross-checked against
networkx as an independent oracle."""

from __future__ import annotations

import random

import networkx as nx
import pytest
from hypothesis import given, settings, strategies as st

from repro.topology.generator import random_tree
from repro.topology.tree import (
    Tree,
    TreeError,
    bfs_distances,
    bfs_tree_path,
    connected_components,
    is_tree,
)


def _nx_graph(tree: Tree) -> nx.Graph:
    graph = nx.Graph()
    graph.add_nodes_from(range(tree.node_count))
    graph.add_edges_from(tree.edges)
    return graph


class TestTreeValidation:
    def test_single_node_tree(self):
        tree = Tree(1, [])
        assert tree.node_count == 1
        assert tree.edges == []
        assert tree.diameter() == 0

    def test_simple_path(self):
        tree = Tree(3, [(0, 1), (1, 2)])
        assert tree.neighbors(1) == [0, 2]
        assert tree.degree(1) == 2
        assert tree.diameter() == 2

    def test_wrong_edge_count_rejected(self):
        with pytest.raises(TreeError):
            Tree(3, [(0, 1)])
        with pytest.raises(TreeError):
            Tree(2, [(0, 1), (0, 1)])

    def test_disconnected_rejected(self):
        with pytest.raises(TreeError):
            Tree(4, [(0, 1), (2, 3), (0, 1)])

    def test_self_loop_rejected(self):
        with pytest.raises(TreeError):
            Tree(2, [(0, 0)])

    def test_unknown_node_rejected(self):
        with pytest.raises(TreeError):
            Tree(2, [(0, 5)])

    def test_cycle_rejected(self):
        # 3 edges over 4 nodes with a cycle leaves node 3 disconnected.
        with pytest.raises(TreeError):
            Tree(4, [(0, 1), (1, 2), (2, 0)])

    def test_is_tree_helper(self):
        assert is_tree(3, [(0, 1), (1, 2)])
        assert not is_tree(3, [(0, 1)])
        assert not is_tree(3, [(0, 1), (0, 1)])
        assert not is_tree(0, [])


class TestPathsAndDistances:
    def test_path_endpoints_inclusive(self):
        tree = Tree(4, [(0, 1), (1, 2), (2, 3)])
        assert tree.path(0, 3) == [0, 1, 2, 3]
        assert tree.path(3, 0) == [3, 2, 1, 0]
        assert tree.path(2, 2) == [2]

    def test_distance_matches_path_length(self):
        tree = Tree(5, [(0, 1), (1, 2), (1, 3), (3, 4)])
        assert tree.distance(0, 4) == 3
        assert tree.distance(2, 4) == 3
        assert tree.distance(0, 0) == 0

    def test_distances_from_source(self):
        tree = Tree(4, [(0, 1), (1, 2), (1, 3)])
        assert tree.distances_from(0) == {0: 0, 1: 1, 2: 2, 3: 2}

    def test_subtree_through(self):
        tree = Tree(6, [(0, 1), (1, 2), (1, 3), (3, 4), (3, 5)])
        assert tree.subtree_through(1, 3) == {3, 4, 5}
        assert tree.subtree_through(3, 1) == {0, 1, 2}
        with pytest.raises(TreeError):
            tree.subtree_through(0, 3)

    @settings(max_examples=30, deadline=None)
    @given(st.integers(min_value=2, max_value=60), st.integers())
    def test_distances_match_networkx(self, n, seed):
        tree = random_tree(n, random.Random(seed), max_degree=4)
        graph = _nx_graph(tree)
        source = n // 2
        expected = nx.single_source_shortest_path_length(graph, source)
        assert tree.distances_from(source) == dict(expected)

    @settings(max_examples=30, deadline=None)
    @given(st.integers(min_value=2, max_value=50), st.integers())
    def test_diameter_matches_networkx(self, n, seed):
        tree = random_tree(n, random.Random(seed), max_degree=4)
        assert tree.diameter() == nx.diameter(_nx_graph(tree))

    @settings(max_examples=20, deadline=None)
    @given(st.integers(min_value=2, max_value=40), st.integers())
    def test_average_path_length_matches_networkx(self, n, seed):
        tree = random_tree(n, random.Random(seed), max_degree=4)
        expected = nx.average_shortest_path_length(_nx_graph(tree))
        assert tree.average_path_length() == pytest.approx(expected)

    @settings(max_examples=30, deadline=None)
    @given(st.integers(min_value=2, max_value=50), st.integers(), st.data())
    def test_path_matches_networkx(self, n, seed, data):
        tree = random_tree(n, random.Random(seed), max_degree=4)
        a = data.draw(st.integers(min_value=0, max_value=n - 1))
        b = data.draw(st.integers(min_value=0, max_value=n - 1))
        expected = nx.shortest_path(_nx_graph(tree), a, b)
        assert tree.path(a, b) == list(expected)


def _shuffled_tree(n: int, seed: int) -> Tree:
    """A random tree whose labels are permuted, so node 0 is not always
    the root the generator grew from."""
    rng = random.Random(seed)
    grown = random_tree(n, rng, max_degree=rng.choice([2, 3, 4, n + 1]))
    label = list(range(n))
    rng.shuffle(label)
    return Tree(n, [(label[a], label[b]) for a, b in grown.edges])


def _bfs_average_path_length(tree: Tree, sources) -> float:
    """The per-source BFS computation the path metrics replaced."""
    adjacency = tree.adjacency()
    total = pairs = 0
    for source in sources:
        distances = bfs_distances(adjacency, source)
        total += sum(distances.values())
        pairs += len(distances) - 1
    return total / pairs


def _sample_sources(n: int, k: int):
    """Every node when N <= k, else k sources at a fixed stride."""
    if n <= k:
        return range(n)
    step = n / k
    return [int(i * step) for i in range(k)]


class TestPathMetrics:
    @settings(max_examples=60, deadline=None)
    @given(st.integers(min_value=1, max_value=300), st.integers())
    def test_distance_sums_match_bfs(self, n, seed):
        tree = _shuffled_tree(n, seed)
        adjacency = tree.adjacency()
        assert tree.distance_sums() == [
            sum(bfs_distances(adjacency, node).values()) for node in range(n)
        ]

    @settings(max_examples=60, deadline=None)
    @given(st.integers(min_value=2, max_value=300), st.integers(), st.data())
    def test_means_equal_bfs_reference_bit_for_bit(self, n, seed, data):
        tree = _shuffled_tree(n, seed)
        k = data.draw(st.sampled_from([1, 2, 7, 64, n - 1, n, n + 1]))
        assert tree.average_path_length() == _bfs_average_path_length(
            tree, range(n)
        )
        assert tree.approx_average_path_length(k) == _bfs_average_path_length(
            tree, _sample_sources(n, k)
        )

    @pytest.mark.parametrize(
        "n, k", [(32, 32), (33, 32), (64, 64), (65, 64), (2500, 64)]
    )
    def test_sample_boundaries_bit_for_bit(self, n, k):
        # N = k takes the exact fallback, N = k + 1 is the first strided
        # sample, and N = 2500 is past collect_result's exact-mean cutoff.
        tree = _shuffled_tree(n, 11)
        assert tree.approx_average_path_length(k) == _bfs_average_path_length(
            tree, _sample_sources(n, k)
        )

    def test_single_node(self):
        tree = Tree(1, [])
        assert tree.distance_sums() == [0]
        assert tree.average_path_length() == 0.0
        assert tree.approx_average_path_length() == 0.0


class TestGraphHelpers:
    def test_connected_components_partitions(self):
        adjacency = {0: {1}, 1: {0}, 2: {3}, 3: {2}, 4: set()}
        components = connected_components(adjacency)
        assert components == [{0, 1}, {2, 3}, {4}]

    def test_bfs_path_unreachable_returns_none(self):
        adjacency = {0: {1}, 1: {0}, 2: set()}
        assert bfs_tree_path(adjacency, 0, 2) is None

    def test_bfs_distances_partial(self):
        adjacency = {0: {1}, 1: {0}, 2: set()}
        assert bfs_distances(adjacency, 0) == {0: 0, 1: 1}

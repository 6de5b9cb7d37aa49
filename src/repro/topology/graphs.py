"""Large-scale graph overlay: the scale-free generator.

The paper evaluates on random trees of at most ~10³ nodes; the follow-up
literature ("Publish-Subscribe Systems via Gossip: a Study based on
Complex Networks", PAPERS.md) shows the interesting gossip regimes live
on much larger overlays with realistic degree structure.  This module
provides :func:`barabasi_albert_edges` -- preferential attachment, giving
a power-law degree tail (scale-free) -- and :func:`bfs_spanning_tree` to
reduce the graph to the spanning tree the dispatching layer needs (the
dispatching structure *is* a tree; Section II).  :func:`graph_tree` is
the one-call combination used by ``build_tree`` for the ``"scale-free"``
style.

Everything is deterministic under a fixed ``random.Random`` stream and
written iteratively (no recursion, no O(N²) steps), so 10⁵-node overlays
generate in well under a second.
"""

from __future__ import annotations

import random
from typing import List, Set, Tuple

from repro.topology.tree import Tree, TreeError

__all__ = [
    "barabasi_albert_edges",
    "bfs_spanning_tree",
    "graph_tree",
    "degree_sequence",
]

Edge = Tuple[int, int]

#: Edges per new node of the scale-free overlay (Barabási–Albert ``m``).
SCALE_FREE_ATTACH = 2


def barabasi_albert_edges(
    node_count: int, rng: random.Random, attach: int = SCALE_FREE_ATTACH
) -> List[Edge]:
    """Barabási–Albert preferential attachment graph, as an edge list.

    Starts from a star over the first ``attach + 1`` nodes, then each new
    node attaches to ``attach`` distinct existing nodes chosen with
    probability proportional to their current degree (implemented with
    the standard repeated-endpoints trick: sampling uniformly from the
    flat list of all edge endpoints *is* degree-proportional sampling).

    The result is connected with a power-law degree tail; hubs emerge
    naturally.  Edges are ``(low, high)`` pairs, deterministic under a
    fixed RNG.
    """
    if attach < 1:
        raise ValueError(f"attach must be >= 1, got {attach}")
    if node_count <= attach:
        raise ValueError(
            f"need more than attach={attach} nodes, got {node_count}"
        )
    edges: List[Edge] = []
    # Flat endpoint list: node i appears once per incident edge, so a
    # uniform draw from it is a degree-proportional draw over nodes.
    endpoints: List[int] = []
    # Seed star keeps the graph connected from the start.
    for node in range(1, attach + 1):
        edges.append((0, node))
        endpoints.append(0)
        endpoints.append(node)
    for new_node in range(attach + 1, node_count):
        targets: Set[int] = set()
        while len(targets) < attach:
            targets.add(endpoints[rng.randrange(len(endpoints))])
        for target in sorted(targets):
            edges.append((target, new_node))
            endpoints.append(target)
            endpoints.append(new_node)
    return edges


def bfs_spanning_tree(
    node_count: int, edges: List[Edge], root: int = 0
) -> Tree:
    """BFS spanning tree of a connected graph, neighbors in sorted order.

    Deterministic for a given edge list.  Raises :class:`TreeError` if
    the graph does not reach every node.
    """
    adjacency: List[List[int]] = [[] for _ in range(node_count)]
    for a, b in edges:
        adjacency[a].append(b)
        adjacency[b].append(a)
    for peers in adjacency:
        peers.sort()
    parent = [-1] * node_count
    parent[root] = root
    order = [root]
    # Manual queue over a growing list: index-scan BFS allocates nothing
    # per node.
    cursor = 0
    while cursor < len(order):
        node = order[cursor]
        cursor += 1
        for peer in adjacency[node]:
            if parent[peer] < 0:
                parent[peer] = node
                order.append(peer)
    if len(order) != node_count:
        raise TreeError(
            f"graph is disconnected: BFS from {root} reached "
            f"{len(order)}/{node_count} nodes"
        )
    tree_edges = [
        (parent[node], node) for node in range(node_count) if node != root
    ]
    return Tree(node_count, tree_edges)


def graph_tree(node_count: int, rng: random.Random) -> Tree:
    """Generate a scale-free overlay (Barabási–Albert, ``m`` =
    :data:`SCALE_FREE_ATTACH`) and extract its dispatching spanning tree.
    Single-node systems shortcut to the trivial tree."""
    if node_count == 1:
        return Tree(1, [])
    return bfs_spanning_tree(node_count, barabasi_albert_edges(node_count, rng))


def degree_sequence(node_count: int, edges: List[Edge]) -> List[int]:
    """Per-node degrees of an edge list (test/diagnostic helper)."""
    degrees = [0] * node_count
    for a, b in edges:
        degrees[a] += 1
        degrees[b] += 1
    return degrees

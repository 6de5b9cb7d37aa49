"""Tree representation and graph utilities.

A :class:`Tree` is an immutable-ish adjacency structure over integer node
ids ``0..n-1``.  Graph algorithms here are written from scratch (BFS based);
``networkx`` is used only by the test suite as an independent oracle.
"""

from __future__ import annotations

from collections import deque
from typing import Dict, Iterable, Iterator, List, Optional, Sequence, Set, Tuple

__all__ = [
    "Tree",
    "TreeError",
    "bfs_distances",
    "bfs_tree_path",
    "connected_components",
    "is_tree",
]

Edge = Tuple[int, int]
Adjacency = Dict[int, Set[int]]


class TreeError(ValueError):
    """Raised when an edge list does not describe a valid tree."""


def _build_adjacency(node_count: int, edges: Iterable[Edge]) -> Adjacency:
    adjacency: Adjacency = {node: set() for node in range(node_count)}
    for a, b in edges:
        if a == b:
            raise TreeError(f"self-loop at node {a}")
        if a not in adjacency or b not in adjacency:
            raise TreeError(f"edge ({a}, {b}) references unknown node")
        if b in adjacency[a]:
            raise TreeError(f"duplicate edge ({a}, {b})")
        adjacency[a].add(b)
        adjacency[b].add(a)
    return adjacency


def connected_components(adjacency: Adjacency) -> List[Set[int]]:
    """Connected components of an undirected graph, as a list of node sets.

    Components are returned in order of their smallest node id, and BFS
    visits neighbors in sorted order, so the result is deterministic.
    """
    seen: Set[int] = set()
    components: List[Set[int]] = []
    for start in sorted(adjacency):
        if start in seen:
            continue
        component = {start}
        queue = deque([start])
        while queue:
            node = queue.popleft()
            for neighbor in sorted(adjacency[node]):
                if neighbor not in component:
                    component.add(neighbor)
                    queue.append(neighbor)
        seen |= component
        components.append(component)
    return components


def is_tree(node_count: int, edges: Sequence[Edge]) -> bool:
    """True iff the edges form a spanning tree over ``node_count`` nodes."""
    if node_count == 0:
        return False
    if len(edges) != node_count - 1:
        return False
    try:
        adjacency = _build_adjacency(node_count, edges)
    except TreeError:
        return False
    return len(connected_components(adjacency)) == 1


def bfs_distances(adjacency: Adjacency, source: int) -> Dict[int, int]:
    """Hop distance from ``source`` to every reachable node."""
    distances = {source: 0}
    queue = deque([source])
    while queue:
        node = queue.popleft()
        base = distances[node]
        for neighbor in adjacency[node]:
            if neighbor not in distances:
                distances[neighbor] = base + 1
                queue.append(neighbor)
    return distances


def bfs_tree_path(adjacency: Adjacency, source: int, target: int) -> Optional[List[int]]:
    """The unique simple path from ``source`` to ``target`` (inclusive).

    Returns ``None`` if ``target`` is unreachable.  On a tree the BFS path
    is the unique path.
    """
    if source == target:
        return [source]
    parents: Dict[int, int] = {source: source}
    queue = deque([source])
    while queue:
        node = queue.popleft()
        for neighbor in adjacency[node]:
            if neighbor in parents:
                continue
            parents[neighbor] = node
            if neighbor == target:
                path = [target]
                while path[-1] != source:
                    path.append(parents[path[-1]])
                path.reverse()
                return path
            queue.append(neighbor)
    return None


class Tree:
    """An unrooted tree over nodes ``0..n-1``.

    The constructor validates tree-ness (connected, exactly n-1 edges, no
    duplicates or self-loops).  Instances expose read-only views; the *live*
    overlay (which can be temporarily disconnected during reconfiguration)
    is owned by :class:`~repro.network.network.Network`, not by this class.
    """

    def __init__(self, node_count: int, edges: Sequence[Edge]) -> None:
        if node_count <= 0:
            raise TreeError("a tree needs at least one node")
        if len(edges) != node_count - 1:
            raise TreeError(
                f"a tree over {node_count} nodes needs exactly "
                f"{node_count - 1} edges, got {len(edges)}"
            )
        self._node_count = node_count
        self._adjacency = _build_adjacency(node_count, edges)
        if len(connected_components(self._adjacency)) != 1:
            raise TreeError("edge set is not connected")
        self._edges: List[Edge] = sorted(
            (min(a, b), max(a, b)) for a, b in edges
        )

    # ------------------------------------------------------------------
    @property
    def node_count(self) -> int:
        return self._node_count

    @property
    def edges(self) -> List[Edge]:
        """Sorted list of (a, b) pairs with a < b."""
        return list(self._edges)

    def nodes(self) -> Iterator[int]:
        return iter(range(self._node_count))

    def neighbors(self, node: int) -> List[int]:
        return sorted(self._adjacency[node])

    def degree(self, node: int) -> int:
        return len(self._adjacency[node])

    def max_degree(self) -> int:
        return max(len(peers) for peers in self._adjacency.values())

    def adjacency(self) -> Adjacency:
        """A *copy* of the adjacency structure."""
        return {node: set(peers) for node, peers in self._adjacency.items()}

    # ------------------------------------------------------------------
    def path(self, source: int, target: int) -> List[int]:
        """The unique path between two nodes (inclusive of both)."""
        path = bfs_tree_path(self._adjacency, source, target)
        assert path is not None  # a tree is connected
        return path

    def distance(self, source: int, target: int) -> int:
        return len(self.path(source, target)) - 1

    def distances_from(self, source: int) -> Dict[int, int]:
        return bfs_distances(self._adjacency, source)

    def eccentricity(self, node: int) -> int:
        return max(self.distances_from(node).values())

    def diameter(self) -> int:
        """Longest shortest path, via the classic double-BFS trick."""
        first = self.distances_from(0)
        far_node = max(first, key=lambda n: (first[n], n))
        second = self.distances_from(far_node)
        return max(second.values())

    def distance_sums(self) -> List[int]:
        """Per-node sum of hop distances to every other node, in O(N).

        One BFS from node 0 orders the nodes parent before child and gives
        node 0's sum as the sum of depths.  Subtree sizes then accumulate
        in reverse order, and moving the root from a parent to its child
        brings the child's ``size`` nodes one hop closer and the other
        ``N - size`` one hop farther:
        ``sums[child] = sums[parent] + N - 2 * size[child]``.
        """
        n = self._node_count
        adjacency = self._adjacency
        parent = [-1] * n
        parent[0] = 0
        depth = [0] * n
        order = [0]
        for node in order:  # the list grows as the BFS frontier is appended
            child_depth = depth[node] + 1
            for peer in adjacency[node]:
                if parent[peer] < 0:
                    parent[peer] = node
                    depth[peer] = child_depth
                    order.append(peer)
        size = [1] * n
        for node in reversed(order[1:]):
            size[parent[node]] += size[node]
        sums = [0] * n
        sums[0] = sum(depth)
        for node in order[1:]:
            sums[node] = sums[parent[node]] + n - 2 * size[node]
        return sums

    def average_path_length(self) -> float:
        """Mean hop distance over all ordered node pairs, in O(N) via
        :meth:`distance_sums`."""
        n = self._node_count
        if n < 2:
            return 0.0
        return sum(self.distance_sums()) / (n * (n - 1))

    def approx_average_path_length(self, max_sources: int = 64) -> float:
        """Mean hop distance from ``max_sources`` evenly spaced sources
        instead of every node.

        Deterministic (no RNG: the sample is a fixed stride over node
        ids).  It costs the same O(N) as :meth:`average_path_length`;
        large runs keep it because their recorded results hold the
        sampled value.  Falls back to the exact value when
        N <= max_sources.
        """
        n = self._node_count
        if n < 2:
            return 0.0
        if n <= max_sources:
            return self.average_path_length()
        sums = self.distance_sums()
        step = n / max_sources
        total = sum(sums[int(i * step)] for i in range(max_sources))
        return total / (max_sources * (n - 1))

    def subtree_through(self, node: int, neighbor: int) -> Set[int]:
        """Nodes reachable from ``node`` through ``neighbor`` (the subtree
        on the far side of the edge node--neighbor), ``neighbor`` included."""
        if neighbor not in self._adjacency[node]:
            raise TreeError(f"({node}, {neighbor}) is not an edge")
        component = {node, neighbor}
        queue = deque([neighbor])
        while queue:
            current = queue.popleft()
            for peer in self._adjacency[current]:
                if peer not in component:
                    component.add(peer)
                    queue.append(peer)
        component.discard(node)
        return component

    def __repr__(self) -> str:  # pragma: no cover - debug aid
        return f"<Tree n={self._node_count} diameter={self.diameter()}>"

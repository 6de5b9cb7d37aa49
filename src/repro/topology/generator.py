"""Tree builders.

The evaluation uses random trees where "each dispatcher is connected, in the
dispatching tree, with at most four others".  :func:`random_tree` grows such
a tree by random attachment under the degree cap.  The structured builders
(:func:`path_tree`, :func:`star_tree`, :func:`balanced_tree`) are used by
tests and by the examples to isolate routing behaviour on known shapes.
"""

from __future__ import annotations

import random
from typing import List, Tuple

from repro.topology.tree import Tree, TreeError

__all__ = [
    "MAX_DEGREE_DEFAULT",
    "random_tree",
    "bushy_tree",
    "build_tree",
    "balanced_tree",
    "path_tree",
    "star_tree",
]

#: The paper's degree cap: "each dispatcher is connected ... with at most
#: four others".
MAX_DEGREE_DEFAULT = 4


def random_tree(
    node_count: int,
    rng: random.Random,
    max_degree: int = MAX_DEGREE_DEFAULT,
) -> Tree:
    """Grow a random tree by uniform attachment under a degree cap.

    Node ``i`` (for ``i >= 1``) attaches to a uniformly random node among
    ``0..i-1`` whose degree is still below ``max_degree``.  With
    ``max_degree=2`` this degenerates into a random path ordering; with
    ``max_degree>=node_count`` it is a uniform random recursive tree.

    Raises :class:`TreeError` when the cap makes the tree impossible
    (``max_degree < 2`` with more than two nodes).
    """
    if node_count <= 0:
        raise TreeError("node_count must be positive")
    if node_count > 2 and max_degree < 2:
        raise TreeError(
            f"cannot build a tree of {node_count} nodes with max degree {max_degree}"
        )
    if node_count == 2 and max_degree < 1:
        raise TreeError("two nodes need max_degree >= 1")
    edges: List[Tuple[int, int]] = []
    degrees = [0] * node_count
    eligible: List[int] = [0]
    for new_node in range(1, node_count):
        attach_index = rng.randrange(len(eligible))
        attach_to = eligible[attach_index]
        edges.append((attach_to, new_node))
        degrees[attach_to] += 1
        degrees[new_node] += 1
        if degrees[attach_to] >= max_degree:
            # Swap-remove keeps the choice uniform and the update O(1).
            eligible[attach_index] = eligible[-1]
            eligible.pop()
        if degrees[new_node] < max_degree:
            eligible.append(new_node)
        if not eligible and new_node < node_count - 1:
            raise TreeError(
                f"degree cap {max_degree} exhausted after {new_node + 1} nodes"
            )
    return Tree(node_count, edges)


def bushy_tree(
    node_count: int,
    rng: random.Random,
    max_degree: int = MAX_DEGREE_DEFAULT,
) -> Tree:
    """Grow a breadth-filled random tree under a degree cap.

    Each new node attaches to a uniformly random node among those of
    *minimum depth* whose degree is still below ``max_degree`` -- the tree
    fills level by level, approximating a complete (max_degree-1)-ary tree
    with randomized shape.  This is the default overlay of the evaluation:
    with N = 100 and the cap of 4 it yields a mean inter-dispatcher
    distance around 6 hops, which reproduces the paper's baseline delivery
    (≈ 55 % at ε = 0.1, ≈ 75 % at ε = 0.05); see DESIGN.md Section 2.
    """
    if node_count <= 0:
        raise TreeError("node_count must be positive")
    if node_count > 2 and max_degree < 2:
        raise TreeError(
            f"cannot build a tree of {node_count} nodes with max degree {max_degree}"
        )
    edges: List[Tuple[int, int]] = []
    degrees = [0] * node_count
    depths = [0] * node_count
    frontier: List[int] = [0]  # eligible nodes at the current fill depth
    next_frontier: List[int] = []
    for new_node in range(1, node_count):
        if not frontier:
            frontier, next_frontier = next_frontier, []
            if not frontier:
                raise TreeError(
                    f"degree cap {max_degree} exhausted after {new_node} nodes"
                )
        attach_index = rng.randrange(len(frontier))
        attach_to = frontier[attach_index]
        edges.append((attach_to, new_node))
        degrees[attach_to] += 1
        degrees[new_node] += 1
        depths[new_node] = depths[attach_to] + 1
        if degrees[attach_to] >= max_degree:
            frontier[attach_index] = frontier[-1]
            frontier.pop()
        if degrees[new_node] < max_degree:
            next_frontier.append(new_node)
    return Tree(node_count, edges)


def build_tree(
    style: str,
    node_count: int,
    rng: random.Random,
    max_degree: int = MAX_DEGREE_DEFAULT,
) -> Tree:
    """Dispatch on a tree-style name: ``bushy``, ``uniform``, ``path``,
    ``star``, ``balanced``, or ``scale-free`` (a Barabási–Albert graph
    reduced to its BFS spanning tree; it ignores the degree cap -- hub
    degree is the point).
    """
    if style == "bushy":
        return bushy_tree(node_count, rng, max_degree)
    if style == "uniform":
        return random_tree(node_count, rng, max_degree)
    if style == "path":
        return path_tree(node_count)
    if style == "star":
        return star_tree(node_count)
    if style == "balanced":
        return balanced_tree(node_count, branching=max(1, max_degree - 1))
    if style == "scale-free":
        # Imported here so the tree-only styles never pay for the graph
        # generator's module.
        from repro.topology.graphs import graph_tree

        return graph_tree(node_count, rng)
    raise ValueError(f"unknown tree style {style!r}")


def path_tree(node_count: int) -> Tree:
    """A simple path 0 - 1 - ... - (n-1): worst case diameter."""
    return Tree(node_count, [(i, i + 1) for i in range(node_count - 1)])


def star_tree(node_count: int) -> Tree:
    """A star centred at node 0: best case diameter (ignores degree cap)."""
    return Tree(node_count, [(0, i) for i in range(1, node_count)])


def balanced_tree(node_count: int, branching: int = 3) -> Tree:
    """A complete ``branching``-ary tree truncated to ``node_count`` nodes.

    Node ``i``'s parent is ``(i - 1) // branching``.  The root has degree
    ``branching``; interior nodes ``branching + 1`` -- choose
    ``branching <= max_degree - 1`` to respect a cap.
    """
    if branching < 1:
        raise TreeError("branching must be >= 1")
    edges = [((i - 1) // branching, i) for i in range(1, node_count)]
    return Tree(node_count, edges)

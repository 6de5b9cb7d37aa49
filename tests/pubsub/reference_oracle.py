"""Reference route oracle for the bitset-oracle differential tests."""

from __future__ import annotations

from collections import deque
from typing import Dict, List, Mapping, Optional, Set, Tuple

from repro.pubsub.pattern import LOCAL

_Component = Tuple[List[int], Dict[int, Optional[int]], Dict[int, List[int]], Set[int]]


def rebuild_routes_reference(system) -> None:
    """Recompute every table of ``system`` one pattern at a time.

    The per-pattern oracle that :meth:`PubSubSystem.rebuild_routes` used
    before it switched to Π-bit pattern sets, kept as a differential
    reference: one BFS per live component, then per pattern a post-order
    pass ("does the subtree below this edge hold a subscriber?") and a
    pre-order pass (push the complement down), installed entry by entry
    with ``table.add``; forwarded marks follow from the laid routes with
    ``table.mark_forwarded``.  O(Π_active · N) node visits.
    """
    dispatchers = system.dispatchers
    adjacency: Dict[int, List[int]] = {
        node_id: system.network.neighbors(node_id)
        for node_id in range(system.node_count)
    }
    for dispatcher in dispatchers:
        dispatcher.table.load({}, {})
    for node_id in range(system.node_count):
        table = dispatchers[node_id].table
        for pattern in system.subscriptions_of(node_id):
            table.add(pattern, LOCAL)
    components: List[_Component] = []
    visited: Set[int] = set()
    for start in range(system.node_count):
        if start in visited:
            continue
        order, parents = _traversal_order(adjacency, start)
        visited.update(order)
        children: Dict[int, List[int]] = {node: [] for node in order}
        for node in order:
            parent = parents[node]
            if parent is not None:
                children[parent].append(node)
        components.append((order, parents, children, set(order)))
    for pattern in system.subscribed_patterns():
        subscribers = set(system.subscribers_of(pattern))
        _lay_routes_for_pattern(dispatchers, pattern, subscribers, components)
    # Protocol-equivalent forwarded marks: x has forwarded p toward m iff
    # x's side of the x--m edge contains a subscriber, which is exactly
    # when m's table points at x for p.
    for dispatcher in dispatchers:
        for pattern, directions in dispatcher.table:
            for direction in directions:
                if direction == LOCAL:
                    continue
                dispatchers[direction].table.mark_forwarded(
                    pattern, dispatcher.node_id
                )


def _lay_routes_for_pattern(
    dispatchers, pattern: int, subscribers: Set[int], components: List[_Component]
) -> None:
    for component_order, parents, children, members in components:
        if not subscribers & members:
            continue
        # Post-order pass: does the subtree rooted at x (w.r.t. this
        # traversal) contain a subscriber?
        has_sub_below: Dict[int, bool] = {}
        for node in reversed(component_order):
            below = node in subscribers
            if not below:
                for child in children[node]:
                    if has_sub_below[child]:
                        below = True
                        break
            has_sub_below[node] = below
        # Pre-order pass: does the rest of the component (through the
        # parent edge) contain a subscriber?
        has_sub_above: Dict[int, bool] = {component_order[0]: False}
        for node in component_order:
            node_children = children[node]
            sub_here = node in subscribers
            above = has_sub_above[node]
            children_with_sub = sum(
                1 for child in node_children if has_sub_below[child]
            )
            for child in node_children:
                others = children_with_sub - (1 if has_sub_below[child] else 0)
                has_sub_above[child] = above or sub_here or others > 0
        # Install directions.
        for node in component_order:
            table = dispatchers[node].table
            parent = parents[node]
            if parent is not None and has_sub_above[node]:
                table.add(pattern, parent)
            for child in children[node]:
                if has_sub_below[child]:
                    table.add(pattern, child)


def _traversal_order(
    adjacency: Mapping[int, List[int]], start: int
) -> Tuple[List[int], Dict[int, Optional[int]]]:
    """BFS order and parent map of the component containing ``start``."""
    order = [start]
    parents: Dict[int, Optional[int]] = {start: None}
    queue = deque([start])
    while queue:
        node = queue.popleft()
        for neighbor in adjacency[node]:
            if neighbor not in parents:
                parents[neighbor] = node
                order.append(neighbor)
                queue.append(neighbor)
    return order, parents

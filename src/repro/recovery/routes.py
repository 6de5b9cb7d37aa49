"""The ``Routes`` buffer of publisher-based pull.

Section III-B: *"a new buffer Routes is necessary to store the route towards
a given publisher (e.g., based on the route information stored in the event
most recently received from it)"*.

The buffer maps a source dispatcher to the hop sequence leading back to it,
most recent observation wins.  Routes can go stale after a reconfiguration;
the algorithm tolerates that (the gossip message is simply dropped at the
first missing hop -- "there is no guarantee that the route stored in Routes
is the same originally followed by the missing event").
"""

from __future__ import annotations

from typing import Dict, List, Optional, Tuple

__all__ = ["RoutesBuffer"]


class RoutesBuffer:
    """Most-recently-observed routes from each event source: a view of the
    dispatcher's ``source -> forward route`` dict, written on every event
    hop and reversed only when a publisher-pull round reads it."""

    __slots__ = ("_routes",)

    def __init__(self, routes: Optional[Dict[int, Tuple[int, ...]]] = None) -> None:
        self._routes = {} if routes is None else routes

    def route_to(self, source: int) -> Optional[Tuple[int, ...]]:
        """Hop sequence toward ``source`` (previous hop first, source last)."""
        route = self._routes.get(source)
        return None if route is None else route[::-1]

    def known_sources(self) -> List[int]:
        return sorted(self._routes)

    def forget(self, source: int) -> None:
        self._routes.pop(source, None)

    def clear(self) -> None:
        """Forget every route, in place: the dispatcher keeps writing the
        same dict."""
        self._routes.clear()

    def __len__(self) -> int:
        return len(self._routes)

    def __contains__(self, source: int) -> bool:
        return source in self._routes

    def __repr__(self) -> str:  # pragma: no cover - debug aid
        return f"<RoutesBuffer sources={len(self._routes)}>"

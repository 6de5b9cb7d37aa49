"""Tests for the Routes buffer."""

from __future__ import annotations

import pytest

from repro.recovery.routes import RoutesBuffer


class TestRoutesBuffer:
    def test_stores_reversed_route(self):
        routes = RoutesBuffer()
        routes.update_from_event_route(0, (0, 4, 7))
        # Forward route publisher-first; stored route next-hop-first.
        assert routes.route_to(0) == (7, 4, 0)

    def test_most_recent_wins(self):
        routes = RoutesBuffer()
        routes.update_from_event_route(0, (0, 4, 7))
        routes.update_from_event_route(0, (0, 2))
        assert routes.route_to(0) == (2, 0)
        assert routes.updates == 2

    def test_direct_neighbor_route(self):
        routes = RoutesBuffer()
        routes.update_from_event_route(3, (3,))
        assert routes.route_to(3) == (3,)

    def test_unknown_source(self):
        routes = RoutesBuffer()
        assert routes.route_to(9) is None
        assert 9 not in routes

    def test_empty_route_ignored(self):
        routes = RoutesBuffer()
        routes.update_from_event_route(0, ())
        assert len(routes) == 0

    def test_route_must_start_at_source(self):
        routes = RoutesBuffer()
        with pytest.raises(ValueError):
            routes.update_from_event_route(0, (1, 0))

    def test_reversed_on_read_and_checked_on_update(self):
        """The buffer stores the forward route and reverses it only when a
        publisher-pull round reads it; the source check stays at update."""
        routes = RoutesBuffer()
        routes.update_from_event_route(5, (5, 8, 2, 9))
        assert routes.route_to(5) == (9, 2, 8, 5)  # previous hop first
        assert routes.route_to(5) == (9, 2, 8, 5)  # reading is repeatable
        with pytest.raises(ValueError, match="must start at its source"):
            routes.update_from_event_route(5, (8, 5))
        # The rejected route left the stored one untouched.
        assert routes.route_to(5) == (9, 2, 8, 5)
        assert routes.updates == 1

    def test_known_sources_and_forget(self):
        routes = RoutesBuffer()
        routes.update_from_event_route(2, (2,))
        routes.update_from_event_route(1, (1,))
        assert routes.known_sources() == [1, 2]
        routes.forget(2)
        assert routes.known_sources() == [1]

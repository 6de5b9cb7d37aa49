"""Tests for the Routes buffer and the routes dispatchers learn.

The dispatcher writes each event's forward route (publisher first,
previous hop last) into its own ``source -> route`` dict on every hop;
``RoutesBuffer`` is the pull family's view of that dict.  The unit tests
drive the buffer over a plain dict; the run-level tests check what a real
run leaves in every dispatcher's dict.
"""

from __future__ import annotations

from repro.recovery.routes import RoutesBuffer
from repro.scenarios.builder import Simulation
from repro.scenarios.config import SimulationConfig


def _run(**overrides):
    """Run a small combined-pull scenario; returns (simulation, result)."""
    base = dict(
        n_dispatchers=16,
        n_patterns=8,
        algorithm="combined-pull",
        error_rate=0.1,
        publish_rate=10.0,
        buffer_size=100,
        sim_time=1.5,
        measure_start=0.2,
        measure_end=1.0,
        seed=4,
    )
    base.update(overrides)
    simulation = Simulation(SimulationConfig(**base))
    return simulation, simulation.run()


def _learned(simulation: Simulation):
    """Every (node, source, stored route) a run left behind."""
    return [
        (dispatcher.node_id, source, route)
        for dispatcher in simulation.system.dispatchers
        for source, route in dispatcher.routes.items()
    ]


class TestRoutesBuffer:
    def test_stores_reversed_route(self):
        routes = RoutesBuffer({0: (0, 4, 7)})
        # Forward route publisher-first; returned route next-hop-first.
        assert routes.route_to(0) == (7, 4, 0)

    def test_most_recent_wins(self):
        learned = {0: (0, 4, 7)}
        routes = RoutesBuffer(learned)
        learned[0] = (0, 2)  # the dispatcher overwrites on a later event
        assert routes.route_to(0) == (2, 0)

    def test_direct_neighbor_route(self):
        routes = RoutesBuffer({3: (3,)})
        assert routes.route_to(3) == (3,)

    def test_unknown_source(self):
        routes = RoutesBuffer()
        assert routes.route_to(9) is None
        assert 9 not in routes
        assert len(routes) == 0

    def test_reversed_on_read(self):
        """The dict keeps the forward route; reading reverses a copy."""
        learned = {5: (5, 8, 2, 9)}
        routes = RoutesBuffer(learned)
        assert routes.route_to(5) == (9, 2, 8, 5)  # previous hop first
        assert routes.route_to(5) == (9, 2, 8, 5)  # reading is repeatable
        assert learned[5] == (5, 8, 2, 9)

    def test_known_sources_and_forget(self):
        learned = {2: (2,), 1: (1,)}
        routes = RoutesBuffer(learned)
        assert routes.known_sources() == [1, 2]
        routes.forget(2)
        assert routes.known_sources() == [1]
        assert learned == {1: (1,)}

    def test_clear_empties_the_shared_dict_in_place(self):
        learned = {2: (2,), 1: (1, 7)}
        routes = RoutesBuffer(learned)
        routes.clear()
        assert learned == {} and len(routes) == 0
        learned[4] = (4, 3)  # later writes still reach the buffer
        assert routes.route_to(4) == (3, 4)

    def test_default_buffers_do_not_share(self):
        first, second = RoutesBuffer(), RoutesBuffer()
        first._routes[1] = (1,)
        assert 1 in first and 1 not in second

    def test_route_must_start_at_source(self):
        """Run-level invariant under reconfiguration: every stored route
        is non-empty, starts at its source and does not contain the node
        that stored it (the route ends at the previous hop)."""
        simulation, result = _run(reconfiguration_interval=0.2)
        assert result.reconfigurations > 0
        learned = _learned(simulation)
        assert len(learned) > len(simulation.system.dispatchers)
        for node, source, route in learned:
            assert route and route[0] == source, (node, source, route)
            assert node not in route, (node, source, route)

    def test_static_tree_routes_are_tree_paths(self):
        """Without reconfiguration each stored route is exactly the tree
        path from the source up to the storing node's previous hop."""
        simulation, _ = _run()
        learned = _learned(simulation)
        assert len(learned) > len(simulation.system.dispatchers)
        for node, source, route in learned:
            assert list(route) == simulation.tree.path(source, node)[:-1]
            recovery_view = simulation.system.dispatchers[node].recovery.routes
            assert recovery_view.route_to(source) == route[::-1]

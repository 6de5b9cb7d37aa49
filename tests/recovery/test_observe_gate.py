"""The recovery observer runs only where a local subscription matches.

Loss detection is defined on the streams a dispatcher subscribes to
locally (Section III-B), so the dispatcher calls the recovery's
``on_event_received`` only for newly received events that match a local
pattern.  These tests pin that contract two ways: a dispatcher that
restores the old behaviour (the observer sees every new event) must give
the same run, and a probe observer must never see an event with no
locally subscribed pattern.
"""

from __future__ import annotations

import pytest

import repro.pubsub.system
from repro.network.message import MessageKind
from repro.pubsub.dispatcher import Dispatcher
from repro.pubsub.pattern import LOCAL
from repro.scenarios.builder import Simulation
from repro.scenarios.config import SimulationConfig


class UngatedDispatcher(Dispatcher):
    """The pre-gate dispatcher: the observer sees every new event, matched
    locally or not.  Everything else is the production behaviour."""

    __slots__ = ()

    def _receive_plain(self, message, from_node):
        if message.kind is not MessageKind.EVENT:
            Dispatcher._receive_plain(self, message, from_node)
            return
        event, route = message.payload
        offset = event.row + self.seen_col
        if self.seen[offset] & self.seen_bit:
            return
        self.seen[offset] |= self.seen_bit
        directions = self.table.matching_directions_for(
            event.content_id, event.patterns
        )
        is_subscriber = bool(directions) and directions[0] == LOCAL
        if is_subscriber:
            self.on_deliver(self.node_id, event, False, self.sim._now)
        if self.observe_event is not None:
            self.observe_event(event, route)
        if is_subscriber:
            self.cache.insert(event)
        if route is not None:
            self.routes[event.event_id.source] = route
            route = route + (self.node_id,)
        self._forward_event(event, route, from_node, directions)

    def receive_recovered_event(self, event):
        offset = event.row + self.seen_col
        if self.seen[offset] & self.seen_bit:
            return False
        self.seen[offset] |= self.seen_bit
        directions = self.table.matching_directions_for(
            event.content_id, event.patterns
        )
        is_subscriber = bool(directions) and directions[0] == LOCAL
        if is_subscriber:
            self.on_deliver(self.node_id, event, True, self.sim._now)
        if self.observe_event is not None:
            self.observe_event(event, None)
        if is_subscriber:
            self.cache.insert(event)
        return True


def _config(**overrides) -> SimulationConfig:
    base = dict(
        n_dispatchers=16,
        n_patterns=10,
        algorithm="combined-pull",
        error_rate=0.1,
        publish_rate=10.0,
        buffer_size=60,
        sim_time=1.5,
        measure_start=0.2,
        measure_end=1.0,
        seed=6,
    )
    base.update(overrides)
    return SimulationConfig(**base)


def _detector_state(simulation: Simulation) -> list:
    return [
        (
            recovery.detector.detected,
            recovery.detector.recovered,
            recovery.detector.abandoned,
            [
                (pattern, recovery.detector.entries_for_pattern(pattern))
                for pattern in recovery.detector.patterns_with_losses()
            ],
        )
        for recovery in simulation.recoveries
    ]


@pytest.mark.parametrize("reconfiguration_interval", [None, 0.2])
def test_gated_observer_matches_ungated_run(monkeypatch, reconfiguration_interval):
    config = _config(reconfiguration_interval=reconfiguration_interval)
    gated = Simulation(config)
    gated_result = gated.run()
    with monkeypatch.context() as patch:
        patch.setattr(repro.pubsub.system, "Dispatcher", UngatedDispatcher)
        ungated = Simulation(config)
    assert all(
        type(dispatcher) is UngatedDispatcher
        for dispatcher in ungated.system.dispatchers
    )
    ungated_result = ungated.run()
    if reconfiguration_interval is not None:
        assert gated_result.reconfigurations > 0
    gated_state = _detector_state(gated)
    assert sum(detected for detected, *_ in gated_state) > 0
    assert gated_state == _detector_state(ungated)
    assert gated_result.signature() == ungated_result.signature()


@pytest.mark.parametrize(
    "algorithm",
    ["subscriber-pull", "publisher-pull", "combined-pull", "random-pull", "ack"],
)
def test_observer_only_sees_locally_matched_events(algorithm):
    simulation = Simulation(
        _config(algorithm=algorithm, reconfiguration_interval=0.2)
    )
    observed = []
    for dispatcher in simulation.system.dispatchers:

        def probe(event, route, observe=dispatcher.observe_event,
                  table=dispatcher.table):
            assert table.matches_locally(event.patterns), event
            observed.append(event)
            observe(event, route)

        dispatcher.observe_event = probe
    simulation.run()
    assert observed

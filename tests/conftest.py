"""Shared fixtures for the test suite."""

from __future__ import annotations

import random

import pytest

from repro.network.network import Network, NetworkConfig
from repro.pubsub.event import Event, EventId, EventIdRegistry
from repro.pubsub.pattern import PatternSpace
from repro.pubsub.system import PubSubSystem
from repro.sim.engine import Simulator
from repro.topology.generator import random_tree
from repro.topology.tree import Tree


@pytest.fixture
def sim() -> Simulator:
    return Simulator()


@pytest.fixture
def rng() -> random.Random:
    return random.Random(12345)


@pytest.fixture
def pattern_space() -> PatternSpace:
    return PatternSpace(70)


def make_event(
    source: int = 0,
    seq: int = 1,
    patterns=(5,),
    pattern_seqs=None,
    publish_time: float = 0.0,
) -> Event:
    """Construct a valid event with minimal boilerplate."""
    patterns = tuple(sorted(patterns))
    if pattern_seqs is None:
        pattern_seqs = {pattern: seq for pattern in patterns}
    return Event(EventId(source, seq), patterns, pattern_seqs, publish_time)


def publish_event(
    registry: EventIdRegistry, source: int = 0, seq: int = 1, patterns=(5,)
) -> Event:
    """An event recorded in ``registry``'s publish log the way
    ``Dispatcher.publish`` records it: each pattern's sequence number is
    the length of ``source``'s id list for that pattern after the append,
    so the event's loss keys resolve through ``registry.published``."""
    event_id = EventId(source, seq)
    streams = registry.published.setdefault(source, {})
    patterns = tuple(sorted(patterns))
    pattern_seqs = {}
    for pattern in patterns:
        ids = streams.setdefault(pattern, [])
        ids.append(event_id)
        pattern_seqs[pattern] = len(ids)
    return Event(event_id, patterns, pattern_seqs, 0.0)


def make_system_event(system: PubSubSystem, **kwargs) -> Event:
    """``make_event`` interned in ``system``'s received-id store, as
    ``Dispatcher.publish`` interns the events it creates; a bare
    ``make_event`` has no row and cannot be received."""
    event = make_event(**kwargs)
    event.row = system.event_registry.new_row()
    return event


def has_received(dispatcher, event: Event) -> bool:
    """Whether ``dispatcher`` has ever received ``event``."""
    return bool(
        dispatcher.seen[event.row + dispatcher.seen_col] & dispatcher.seen_bit
    )


def build_system(
    sim: Simulator,
    tree: Tree,
    pattern_space: PatternSpace,
    error_rate: float = 0.0,
    buffer_size: int = 100,
    record_routes: bool = False,
    seed: int = 7,
    oob_error_rate: float = 0.0,
) -> PubSubSystem:
    """A reliable-by-default PubSubSystem over the given tree."""
    network = Network(
        sim,
        NetworkConfig(error_rate=error_rate, oob_error_rate=oob_error_rate),
        random.Random(seed),
    )
    return PubSubSystem(
        sim,
        network,
        tree,
        pattern_space,
        buffer_size,
        record_routes=record_routes,
    )


@pytest.fixture
def small_tree(rng) -> Tree:
    return random_tree(12, rng, max_degree=4)

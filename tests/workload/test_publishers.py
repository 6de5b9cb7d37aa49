"""Tests for the publishing processes."""

from __future__ import annotations

import random

import pytest

from repro.pubsub.pattern import PatternSpace
from repro.sim.engine import Simulator
from repro.topology.generator import path_tree
from repro.workload.publishers import (
    MAX_EVENT_PATTERNS,
    PublisherProcess,
    start_publishers,
)
from tests.conftest import build_system


def make_system(sim, n=3):
    return build_system(sim, path_tree(n), PatternSpace(10))


class TestPublisherProcess:
    def test_poisson_rate_statistically(self):
        sim = Simulator()
        system = make_system(sim)
        publisher = PublisherProcess(
            system, 0, rate=100.0, rng=random.Random(2)
        )
        publisher.start()
        sim.run(until=5.0)
        assert publisher.published == pytest.approx(500, rel=0.2)

    def test_stop_halts_publishing(self):
        sim = Simulator()
        system = make_system(sim)
        times = []
        system.dispatchers[0].on_publish = lambda event: times.append(
            event.publish_time
        )
        publisher = PublisherProcess(system, 0, rate=10.0, rng=random.Random(3))
        publisher.start()
        sim.schedule(1.0, publisher.stop)
        sim.run(until=5.0)
        assert times and max(times) <= 1.0
        assert publisher.published == len(times)

    def test_until_bound(self):
        sim = Simulator()
        system = make_system(sim)
        times = []
        system.dispatchers[0].on_publish = lambda event: times.append(
            event.publish_time
        )
        publisher = PublisherProcess(
            system, 0, rate=10.0, rng=random.Random(4), until=1.0
        )
        publisher.start()
        sim.run(until=5.0)
        assert times and max(times) < 1.0
        assert publisher.published == len(times)
        assert sim.peek() is None

    def test_events_have_valid_content(self):
        sim = Simulator()
        system = make_system(sim)
        published = []
        system.dispatchers[0].on_publish = published.append
        publisher = PublisherProcess(system, 0, rate=50.0, rng=random.Random(5))
        publisher.start()
        sim.run(until=1.0)
        assert published
        for event in published:
            assert 1 <= len(event.patterns) <= MAX_EVENT_PATTERNS
            assert all(0 <= p < 10 for p in event.patterns)

    def test_invalid_parameters(self):
        sim = Simulator()
        system = make_system(sim)
        with pytest.raises(ValueError):
            PublisherProcess(system, 0, rate=0.0, rng=random.Random(0))
        with pytest.raises(ValueError):
            PublisherProcess(system, 0, rate=-1.0, rng=random.Random(0))


class TestStartPublishers:
    def test_one_process_per_dispatcher(self):
        sim = Simulator()
        system = make_system(sim, n=5)
        publishers = start_publishers(
            system, rate=20.0, rng_factory=lambda i: random.Random(i)
        )
        assert len(publishers) == 5
        sim.run(until=1.0)
        assert all(p.published > 0 for p in publishers)

    def test_independent_streams_per_node(self):
        sim = Simulator()
        system = make_system(sim, n=2)
        publishers = start_publishers(
            system, rate=50.0, rng_factory=lambda i: random.Random(i)
        )
        sim.run(until=1.0)
        # Different streams -> different publish counts with high probability.
        assert publishers[0].published != publishers[1].published

"""Microbenchmarks of the substrate hot paths.

Unlike the figure benchmarks (single-shot simulations), these measure raw
throughput of the pieces the simulation spends its time in, with proper
repeated rounds -- useful when optimizing the simulator itself.
"""

from __future__ import annotations

from repro.pubsub.cache import EventCache
from repro.pubsub.pattern import PatternSpace
from repro.scenarios.builder import Simulation
from repro.scenarios.config import SimulationConfig
from repro.sim.engine import Simulator
from repro.sim.rng import RandomStreams
from repro.topology.generator import bushy_tree
from tests.conftest import make_event
from tests.pubsub.reference_oracle import rebuild_routes_reference


def test_engine_event_throughput(benchmark):
    """Schedule+dispatch cost of the bare event loop."""

    def run_events():
        sim = Simulator()
        count = 20_000

        def noop():
            pass

        for i in range(count):
            sim.schedule(i * 1e-6, noop)
        sim.run()
        return sim.events_processed

    processed = benchmark(run_events)
    assert processed == 20_000


def test_cache_insert_lookup_throughput(benchmark):
    """FIFO cache at the default β with all three indexes live."""
    events = [
        make_event(source=i % 7, seq=i + 1, patterns=(i % 11, 11 + i % 13),
                   pattern_seqs={i % 11: i + 1, 11 + i % 13: i + 1})
        for i in range(5_000)
    ]

    def churn():
        cache = EventCache(1500)
        hits = 0
        for event in events:
            cache.insert(event)
        for event in events:
            if cache.get(event.event_id) is not None:
                hits += 1
        return hits

    hits = benchmark(churn)
    assert hits == 1500


def _bench_route_oracle(benchmark, config):
    """Time ``rebuild_routes`` on a built system and check that it lays the
    same routes as the per-pattern reference oracle."""
    system = Simulation(config).system
    rebuild_routes_reference(system)
    expected = [list(dispatcher.table) for dispatcher in system.dispatchers]
    benchmark(system.rebuild_routes)
    assert [list(dispatcher.table) for dispatcher in system.dispatchers] == expected


def test_route_oracle_rebuild(benchmark):
    """Full subscription-table rebuild at paper scale (the reconfiguration
    hot path; ``pubsub`` layer, set-up and repairs)."""
    config = SimulationConfig(sim_time=1.0, measure_start=0.1, measure_end=0.9)
    _bench_route_oracle(benchmark, config)


def test_route_oracle_rebuild_scale_free_10k(benchmark):
    """The same rebuild on a 10k-node scale-free overlay: the route oracle
    that dominates the ``pubsub`` set-up of bench/'s ``scale_free_10k``."""
    config = SimulationConfig(
        n_dispatchers=10_000,
        n_patterns=70,
        publish_rate=200.0 / 10_000,
        sim_time=0.6,
        measure_start=0.1,
        measure_end=0.4,
        buffer_size=32,
        gossip_interval=0.1,
        tree_style="scale-free",
        workload_model="aggregate",
    )
    _bench_route_oracle(benchmark, config)


def test_event_publish_routing(benchmark):
    """End-to-end cost of publishing events through a 100-node overlay
    with reliable links (routing + delivery, no recovery)."""
    config = SimulationConfig(
        algorithm="none",
        error_rate=0.0,
        publish_rate=50.0,
        sim_time=1.0,
        measure_start=0.1,
        measure_end=0.9,
    )

    def run_second():
        simulation = Simulation(config)
        result = simulation.run()
        return result.events_published

    published = benchmark.pedantic(run_second, rounds=3, iterations=1)
    assert published > 3_000


def test_tree_generation(benchmark):
    rng = RandomStreams(7).stream("bench-tree")

    def build():
        return bushy_tree(200, rng, max_degree=4)

    tree = benchmark(build)
    assert tree.node_count == 200


def test_matching_throughput(benchmark):
    """Subscription-table matching over a realistic table."""
    from repro.pubsub.subscription import SubscriptionTable

    rng = RandomStreams(3).stream("bench-match")
    space = PatternSpace(70)
    table = SubscriptionTable(70)
    for pattern in range(70):
        for direction in rng.sample(range(4), rng.randint(1, 3)):
            table.add(pattern, direction)
    contents = [space.sample_event_patterns(rng) for _ in range(2_000)]

    def match_all():
        total = 0
        for patterns in contents:
            total += len(table.matching_directions(patterns))
        return total

    total = benchmark(match_all)
    assert total > 0


def test_matching_memo_throughput(benchmark):
    """Hot-path matching with heavy content repetition.

    A run draws event contents from a small pool over and over, so
    :meth:`matching_directions_sorted` should be dominated by memo hits;
    this benchmark is the memo's best case and regresses loudly if the
    cache is lost or keyed badly.
    """
    from repro.pubsub.subscription import SubscriptionTable

    rng = RandomStreams(3).stream("bench-memo")
    space = PatternSpace(70)
    table = SubscriptionTable(70)
    for pattern in range(70):
        for direction in rng.sample(range(4), rng.randint(1, 3)):
            table.add(pattern, direction)
    distinct = [space.sample_event_patterns(rng) for _ in range(200)]

    def match_repeated():
        total = 0
        for _ in range(50):
            for patterns in distinct:
                directions = table.matching_directions_sorted(patterns)
                total += len(directions)
                if directions and directions[0] == -1:  # LOCAL
                    total += 1
        return total

    total = benchmark(match_repeated)
    assert total > 0


def test_forward_event_throughput(benchmark):
    """``Dispatcher._forward_event`` through a live overlay.

    The per-hop match + per-direction send that dominates event routing;
    exercised straight on a built simulation so link/observer inlining
    shows up here too.
    """
    config = SimulationConfig(
        n_dispatchers=20,
        n_patterns=35,
        algorithm="none",
        error_rate=0.0,
        sim_time=2.0,
        measure_start=0.1,
        measure_end=1.0,
        buffer_size=100,
        seed=9,
    )
    events = [
        make_event(source=0, seq=i + 1, patterns=(i % 35,),
                   pattern_seqs={i % 35: i + 1})
        for i in range(1_000)
    ]

    def forward():
        simulation = Simulation(config)
        dispatcher = simulation.system.dispatchers[0]
        matching = dispatcher.table.matching_directions_for
        for event in events:
            directions = matching(event.content_id, event.patterns)
            dispatcher._forward_event(event, None, None, directions)
        return simulation.sim.pending

    pending = benchmark(forward)
    assert pending > 0

"""FaultInjector behaviour: crashes, restarts, churn, partitions, heals.

Driven through the full scenario builder on small fixed topologies so the
wiring (network down-sets, recovery stop/restart, publisher stop/restart,
stats aggregation) is exercised exactly as production runs exercise it.
"""

from __future__ import annotations

import pytest

from repro.faults import (
    ChurnProcess,
    CrashEvent,
    FaultPlan,
    PartitionEvent,
    scripted_crashes,
)
from repro.scenarios.builder import Simulation
from repro.scenarios.config import SimulationConfig
from repro.topology.generator import path_tree

BASE = dict(
    n_dispatchers=8,
    n_patterns=8,
    pi_max=2,
    publish_rate=20.0,
    error_rate=0.0,
    sim_time=4.0,
    measure_start=0.5,
    measure_end=3.5,
    buffer_size=200,
    algorithm="combined-pull",
    seed=5,
)


def make_simulation(plan, **overrides):
    config = SimulationConfig(**{**BASE, **overrides, "faults": plan})
    return Simulation(config, tree=path_tree(config.n_dispatchers))


class TestCrashes:
    def test_crash_stop_takes_node_down_for_good(self):
        plan = FaultPlan(crashes=(CrashEvent(node=3, at=1.0),))
        simulation = make_simulation(plan)
        result = simulation.run()
        assert simulation.network.is_down(3)
        assert result.faults.crashes == 1
        assert result.faults.restarts == 0
        # Node 3 sits mid-path: traffic addressed to it became counted drops.
        assert result.faults.down_node_drops > 0
        assert result.unexpected_deliveries == 0
        assert result.duplicate_deliveries == 0

    def test_crash_recovery_restarts_with_wiped_volatiles(self):
        plan = FaultPlan(crashes=(CrashEvent(node=3, at=1.0, duration=1.0),))
        simulation = make_simulation(plan)
        simulation.run(until=1.5)  # mid-outage
        network = simulation.network
        dispatcher = simulation.system.dispatchers[3]
        assert network.is_down(3)
        assert not simulation.publishers[3]._running
        result = simulation.run(until=2.05)  # just past the restart
        assert not network.is_down(3)
        assert simulation.publishers[3]._running
        # The cache was emptied at restart; at most a few post-restart
        # events have trickled back in.
        assert len(dispatcher.cache) < 20
        assert result.faults.restarts == 1

    def test_overlapping_crash_is_skipped_not_queued(self):
        plan = FaultPlan(
            crashes=(
                CrashEvent(node=2, at=1.0, duration=1.5),
                CrashEvent(node=2, at=1.5, duration=1.5),
            )
        )
        result = make_simulation(plan).run()
        assert result.faults.crashes == 1
        assert result.faults.crashes_skipped == 1
        assert result.faults.restarts == 1  # only the real crash restarts

    def test_scripted_crashes_helper_hits_every_node(self):
        plan = FaultPlan(crashes=scripted_crashes([1, 4, 6], at=1.0, duration=0.5))
        simulation = make_simulation(plan)
        result = simulation.run()
        assert result.faults.crashes == 3
        assert result.faults.restarts == 3
        assert simulation.network.down_nodes() == set()

    def test_restart_resyncs_loss_detector(self):
        """A restarting pull node must not declare all pre-crash history
        lost: the detector re-baselines each stream at the first event it
        sees after the restart."""
        plan = FaultPlan(crashes=(CrashEvent(node=3, at=1.5, duration=1.0),))
        simulation = make_simulation(plan)
        result = simulation.run()
        detector = simulation.recoveries[3].detector
        # ~30 pre-crash events per stream would each be a "gap" without
        # resync; the Lost buffer stays far below that.
        assert result.faults.restarts == 1
        assert detector.detected < 30

    def test_restart_keeps_the_publish_log(self):
        """Loss keys name one event for the whole run: a restart wipes the
        publisher's cache but not its per-pattern sequence numbers, so its
        next publish continues each pattern's sequence, and a pre-crash
        key is still served from another node's cache."""
        plan = FaultPlan(crashes=(CrashEvent(node=3, at=1.0, duration=0.5),))
        simulation = make_simulation(plan, buffer_size=5000)
        simulation.run(until=0.99)
        streams = simulation.system.event_registry.published[3]
        pattern = max(sorted(streams), key=lambda p: len(streams[p]))
        seq = len(streams[pattern])
        event_id = streams[pattern][-1]
        simulation.run(until=1.55)  # just past the restart
        assert not simulation.network.is_down(3)
        assert simulation.fault_injector.stats.restarts == 1
        publisher = simulation.system.dispatchers[3]
        event = publisher.publish((pattern,))
        assert event.pattern_seqs[pattern] == len(streams[pattern]) > seq
        # The restarted node's cache is gone; a subscriber still holds it.
        key = (3, pattern, seq)
        assert simulation.recoveries[3].serve_from_cache((key,), 0) == (key,)
        holders = [
            node
            for node, dispatcher in enumerate(simulation.system.dispatchers)
            if node != 3 and dispatcher.cache.contains(event_id)
        ]
        assert holders
        recovery = simulation.recoveries[holders[0]]
        sent = recovery.stats.retransmissions_sent
        assert recovery.serve_from_cache((key,), 3) == ()
        assert recovery.stats.retransmissions_sent == sent + 1


class TestChurn:
    def test_churn_crashes_and_restarts_nodes(self):
        plan = FaultPlan(churn=ChurnProcess(rate=4.0, mean_downtime=0.3, start=0.5))
        result = make_simulation(plan).run()
        assert result.faults.crashes >= 3
        assert result.faults.restarts >= 1
        assert result.unexpected_deliveries == 0
        assert result.duplicate_deliveries == 0

    def test_churn_respects_end_time(self):
        plan = FaultPlan(
            churn=ChurnProcess(rate=50.0, mean_downtime=0.1, start=0.5, end=1.0)
        )
        simulation = make_simulation(plan)
        simulation.run(until=1.0)
        crashes_at_end = simulation.fault_injector.stats.crashes
        assert crashes_at_end > 0
        simulation.run()
        # One arrival may straddle the boundary before the process notices.
        assert simulation.fault_injector.stats.crashes <= crashes_at_end + 1

    def test_crash_stop_fraction_one_never_restarts(self):
        plan = FaultPlan(
            churn=ChurnProcess(
                rate=2.0, mean_downtime=0.1, crash_stop_fraction=1.0, start=0.5
            )
        )
        simulation = make_simulation(plan)
        result = simulation.run()
        assert result.faults.crashes > 0
        assert result.faults.restarts == 0
        assert simulation.network.down_nodes() != set()


class TestPartitions:
    def test_scripted_partition_cuts_and_heals_the_edge(self):
        plan = FaultPlan(partitions=(PartitionEvent(at=1.0, duration=0.5, edge=(3, 4)),))
        simulation = make_simulation(plan)
        simulation.run(until=1.2)  # mid-outage
        network = simulation.network
        assert network.has_link(3, 4)
        assert not network.link(3, 4).up
        result = simulation.run()
        assert network.link(3, 4).up
        assert result.faults.partitions == 1
        assert result.faults.heals == 1
        assert result.faults.partition_links_cut == 1
        assert result.faults.heal_links_restored == 1

    def test_scripted_partition_on_missing_edge_is_a_noop(self):
        plan = FaultPlan(partitions=(PartitionEvent(at=1.0, duration=0.5, edge=(0, 7)),))
        result = make_simulation(plan).run()  # path tree: 0-7 not adjacent
        assert result.faults.partitions == 0

    def test_heal_never_resurrects_removed_links(self):
        plan = FaultPlan(partitions=(PartitionEvent(at=1.0, duration=1.0, edge=(3, 4)),))
        simulation = make_simulation(plan)
        simulation.run(until=1.5)  # partition is in force
        simulation.network.remove_link(3, 4)  # reconfiguration-style removal
        result = simulation.run()
        assert not simulation.network.has_link(3, 4)
        assert result.faults.heals == 1
        assert result.faults.heal_links_restored == 0

    def test_partition_drops_crossing_traffic_without_exceptions(self):
        plan = FaultPlan(partitions=(PartitionEvent(at=1.0, duration=1.0, edge=(3, 4)),))
        result = make_simulation(plan, algorithm="none").run()
        # The path tree is split in half for a quarter of the run: a
        # visible chunk of cross-cut deliveries must be missing.
        assert result.delivery_full.delivery_rate < 0.95
        assert result.unexpected_deliveries == 0
        assert result.duplicate_deliveries == 0


class TestBuilderWiring:
    def test_no_injector_without_plan(self):
        config = SimulationConfig(**BASE)
        assert Simulation(config, tree=path_tree(8)).fault_injector is None

    def test_no_injector_for_loss_only_plan(self):
        from repro.faults import GilbertElliottConfig

        plan = FaultPlan(link_loss=GilbertElliottConfig.from_epsilon(0.1))
        simulation = make_simulation(plan)
        assert simulation.fault_injector is None
        result = simulation.run()
        assert result.faults.burst_drops > 0
        assert result.faults.burst_transitions > 0

    def test_oob_burst_loss_counted(self):
        from repro.faults import GilbertElliottConfig

        plan = FaultPlan(oob_loss=GilbertElliottConfig.from_epsilon(0.3))
        result = make_simulation(plan, error_rate=0.1).run()
        assert result.faults.burst_drops > 0

    def test_start_is_idempotent(self):
        plan = FaultPlan(crashes=(CrashEvent(node=1, at=1.0, duration=0.5),))
        simulation = make_simulation(plan)
        simulation.start()
        simulation.fault_injector.start()  # second arm must not double-book
        result = simulation.run()
        assert result.faults.crashes == 1

"""Execute a :class:`~repro.faults.plan.FaultPlan` against a live simulation.

The injector is wired by the scenario builder and armed via :meth:`start`
before the run.  All scheduling goes through the simulator and all
randomness through the dedicated ``"faults"`` stream, so the same plan and
seed replay the same fault timeline regardless of what the protocols do.

Crash semantics
---------------
A crashed node keeps its links and routing entries (the rest of the tree
still forwards toward it) but every message addressed to it is discarded
on arrival as a counted drop -- ``Network.set_node_down``.  Its gossip
timer and publisher are stopped.  On restart, volatile state is wiped
(event cache, loss-detector streams, learned routes, peer tracker) via
``EventCache.clear`` and ``RecoveryAlgorithm.on_restart``; durable
identity (node id, subscriptions, ``received_ids`` -- the delivery log
lives with the application, not the dispatcher's buffers) survives, and
the timer/publisher resume.

Partition semantics
-------------------
A partition picks a live tree edge, computes the component that edge
separates, and takes *every* link crossing the cut down together (on a
tree that is one link; after concurrent reconfigurations it can be more).
Messages sent into the cut become counted drops.  After the outage the
surviving cut links come back up; links the reconfiguration engine removed
in the meantime stay gone.
"""

from __future__ import annotations

import random
from typing import List, Optional, Sequence, Tuple

from repro.faults.plan import (
    ChurnProcess,
    CrashEvent,
    FaultPlan,
    PartitionEvent,
    PartitionProcess,
)
from repro.faults.stats import FaultStats
from repro.network.network import Network
from repro.pubsub.system import PubSubSystem
from repro.sim.engine import Simulator

__all__ = ["FaultInjector"]


class FaultInjector:
    """Drives crashes, restarts, and partitions from a declarative plan.

    Parameters
    ----------
    sim, network, system:
        The simulation engine, the network (down-node bookkeeping), and the
        pub-sub system (dispatcher access).
    recoveries:
        One recovery algorithm per dispatcher, indexed by node id; crashed
        nodes have their gossip timer stopped and their volatile recovery
        state wiped on restart.
    publishers:
        One publisher process per dispatcher, indexed by node id (may be
        empty for harness-driven tests).
    rng:
        The dedicated ``"faults"`` random stream.
    plan:
        What to inject.
    """

    def __init__(
        self,
        sim: Simulator,
        network: Network,
        system: PubSubSystem,
        recoveries: Sequence,
        publishers: Sequence,
        rng: random.Random,
        plan: FaultPlan,
    ) -> None:
        self.sim = sim
        self.network = network
        self.system = system
        self.recoveries = recoveries
        self.publishers = publishers
        self.rng = rng
        self.plan = plan
        self.stats = FaultStats()
        self._started = False

    # ------------------------------------------------------------------
    def start(self) -> None:
        """Arm every scripted event and stochastic process."""
        if self._started:
            return
        self._started = True
        sim = self.sim
        for crash in self.plan.crashes:
            sim.schedule_call_at(crash.at, self._crash, crash.node, crash.duration)
        for partition in self.plan.partitions:
            sim.schedule_call_at(
                partition.at, self._partition, partition.edge, partition.duration
            )
        churn = self.plan.churn
        if churn is not None:
            sim.schedule_call_at(
                churn.start + self.rng.expovariate(churn.rate), self._churn_tick
            )
        process = self.plan.partition_process
        if process is not None:
            sim.schedule_call_at(
                process.start + self.rng.expovariate(1.0 / process.interval),
                self._partition_tick,
            )

    # ------------------------------------------------------------------
    # Crashes
    # ------------------------------------------------------------------
    def _crash(self, node_id: int, duration: Optional[float]) -> None:
        network = self.network
        if network.is_down(node_id):
            self.stats.crashes_skipped += 1
            return
        network.set_node_down(node_id, True)
        if node_id < len(self.recoveries):
            self.recoveries[node_id].stop()
        if node_id < len(self.publishers):
            self.publishers[node_id].stop()
        self.stats.crashes += 1
        if duration is not None:
            self.sim.schedule_call(duration, self._restart, node_id)

    def _restart(self, node_id: int) -> None:
        network = self.network
        if not network.is_down(node_id):
            return  # already restarted (defensive; plans should not overlap)
        dispatcher = self.system.dispatchers[node_id]
        # Volatile buffers do not survive the crash...
        dispatcher.cache.clear()
        network.set_node_down(node_id, False)
        if node_id < len(self.recoveries):
            recovery = self.recoveries[node_id]
            recovery.on_restart()
            recovery.start()
        if node_id < len(self.publishers):
            self.publishers[node_id].start()
        self.stats.restarts += 1

    def _churn_tick(self) -> None:
        churn = self.plan.churn
        assert churn is not None
        now = self.sim.now
        if churn.end is not None and now > churn.end:
            return
        rng = self.rng
        victim = rng.randrange(self.network.node_count)
        if churn.crash_stop_fraction > 0.0 and rng.random() < churn.crash_stop_fraction:
            duration: Optional[float] = None
        else:
            duration = rng.expovariate(1.0 / churn.mean_downtime)
        self._crash(victim, duration)
        self.sim.schedule_call(rng.expovariate(churn.rate), self._churn_tick)

    # ------------------------------------------------------------------
    # Partitions
    # ------------------------------------------------------------------
    def _partition(
        self, edge: Optional[Tuple[int, int]], duration: float
    ) -> None:
        network = self.network
        if edge is None:
            edges = network.edges()
            if not edges:
                return
            edge = edges[self.rng.randrange(len(edges))]
        elif not network.has_link(*edge):
            return  # scripted edge already gone (reconfiguration raced us)
        cut = self._cut_links(edge)
        for link_edge in cut:
            network.link(*link_edge).set_up(False)
        self.stats.partitions += 1
        self.stats.partition_links_cut += len(cut)
        self.sim.schedule_call(duration, self._heal, tuple(cut))

    def _cut_links(self, edge: Tuple[int, int]) -> List[Tuple[int, int]]:
        """Links with exactly one endpoint in the component ``edge`` splits off.

        BFS from ``edge[0]`` with the chosen edge removed finds the island;
        on a tree the cut is the edge itself, but concurrent
        reconfigurations can have added other paths.
        """
        network = self.network
        a, b = edge
        island = {a}
        frontier = [a]
        while frontier:
            node = frontier.pop()
            for neighbor in network.neighbors(node):
                if (node, neighbor) in ((a, b), (b, a)):
                    continue
                if neighbor not in island:
                    island.add(neighbor)
                    frontier.append(neighbor)
        if b in island:
            # Another path rejoins the two sides; cutting just this edge
            # degrades the tree but partitions nothing extra.
            return [(a, b) if a < b else (b, a)]
        return [
            crossing
            for crossing in network.edges()
            if (crossing[0] in island) != (crossing[1] in island)
        ]

    def _heal(self, cut: Tuple[Tuple[int, int], ...]) -> None:
        network = self.network
        restored = 0
        for edge in cut:
            # The reconfiguration engine may have removed the link during
            # the outage; healed partitions never resurrect removed links.
            if network.has_link(*edge):
                network.link(*edge).set_up(True)
                restored += 1
        self.stats.heals += 1
        self.stats.heal_links_restored += restored

    def _partition_tick(self) -> None:
        process = self.plan.partition_process
        assert process is not None
        now = self.sim.now
        if process.end is not None and now > process.end:
            return
        self._partition(None, process.duration)
        self.sim.schedule_call(
            self.rng.expovariate(1.0 / process.interval), self._partition_tick
        )

    def __repr__(self) -> str:  # pragma: no cover - debug aid
        return (
            f"<FaultInjector crashes={self.stats.crashes} "
            f"restarts={self.stats.restarts} partitions={self.stats.partitions}>"
        )

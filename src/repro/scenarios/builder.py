"""Build one complete simulation from a :class:`SimulationConfig`.

The :class:`Simulation` object owns every layer -- engine, tree, network,
dispatchers, recovery instances, workload processes, reconfiguration engine,
and metrics -- and knows how to run itself to completion and summarize the
outcome as a :class:`~repro.scenarios.results.RunResult`.

Randomness is split into independent named streams so that runs are
comparable across algorithms: the topology, the subscription assignment,
the workload, and the link-loss draws do not depend on which recovery
algorithm is active.
"""

from __future__ import annotations

import functools
import gc
import time
from typing import Any, Callable, List, Optional

from repro.faults.injector import FaultInjector
from repro.faults.loss import GilbertElliottFactory, GilbertElliottLoss
from repro.faults.stats import FaultStats
from repro.metrics.counters import MessageCounters
from repro.metrics.delivery import DeliveryTracker
from repro.network.network import Network
from repro.pubsub.event import Event
from repro.pubsub.pattern import PatternSpace
from repro.pubsub.system import PubSubSystem
from repro.recovery import ALGORITHMS, create_recovery
from repro.recovery.base import GossipStats, RecoveryAlgorithm
from repro.scenarios.config import SimulationConfig
from repro.scenarios.results import RunResult
from repro.sim.engine import Simulator
from repro.sim.rng import RandomStreams
from repro.topology.generator import build_tree
from repro.topology.reconfiguration import ReconfigurationEngine
from repro.topology.tree import Tree
from repro.workload.publishers import AggregatePublisherPool, PublisherProcess
from repro.workload.subscriptions import assign_subscriptions

__all__ = ["Simulation", "SERIES_BIN_WIDTH"]

#: Bin width of the delivery-rate time series, seconds.
SERIES_BIN_WIDTH = 0.1


def _gc_paused(function: Callable[..., Any]) -> Callable[..., Any]:
    """Wrap ``function`` so that it runs with the cyclic garbage collector
    paused, restoring the caller's setting afterwards, also when it raises.

    Set-up builds long-lived per-node state and the event loop allocates
    heavily (messages, heap entries, digests) without leaving cycles to
    reclaim, so generational passes in either are pure overhead.  A plain
    wrapper rather than a ``contextlib`` manager keeps every frame of the
    pause in this module, where profiles charge it to ``scenarios``.
    """

    @functools.wraps(function)
    def paused(*args: Any, **kwargs: Any) -> Any:
        was_enabled = gc.isenabled()
        gc.disable()
        try:
            return function(*args, **kwargs)
        finally:
            if was_enabled:
                gc.enable()

    return paused


class Simulation:
    """A fully wired simulation, ready to :meth:`run`."""

    @_gc_paused
    def __init__(self, config: SimulationConfig, tree: Optional[Tree] = None) -> None:
        if config.algorithm not in ALGORITHMS:
            raise KeyError(
                f"unknown algorithm {config.algorithm!r}; known: {sorted(ALGORITHMS)}"
            )
        self.config = config
        self.streams = RandomStreams(config.seed)
        self.sim = Simulator()

        # --- topology ---------------------------------------------------
        self.tree = tree or build_tree(
            config.tree_style,
            config.n_dispatchers,
            self.streams.stream("topology"),
            config.max_degree,
        )
        if self.tree.node_count != config.n_dispatchers:
            raise ValueError(
                f"tree has {self.tree.node_count} nodes, config says "
                f"{config.n_dispatchers}"
            )

        # --- metrics ----------------------------------------------------
        self.tracker = DeliveryTracker()

        # --- network + dispatchers ---------------------------------------
        # Burst-loss models (when configured) replace the Bernoulli draws;
        # the factories are kept so collect_result can aggregate burst
        # counters into FaultStats.
        plan = config.faults
        self._link_loss_factory: Optional[GilbertElliottFactory] = None
        self._oob_loss_model: Optional[GilbertElliottLoss] = None
        if plan is not None:
            if plan.link_loss is not None:
                self._link_loss_factory = GilbertElliottFactory(plan.link_loss)
            if plan.oob_loss is not None:
                self._oob_loss_model = GilbertElliottLoss(plan.oob_loss)
        self.network = Network(
            self.sim,
            config.network_config(),
            self.streams.stream("loss"),
            loss_model_factory=self._link_loss_factory,
            oob_loss_model=self._oob_loss_model,
        )
        self.pattern_space = PatternSpace(config.n_patterns)
        algorithm_cls = ALGORITHMS[config.algorithm]
        self.system = PubSubSystem(
            self.sim,
            self.network,
            self.tree,
            self.pattern_space,
            config.buffer_size,
            record_routes=algorithm_cls.requires_route_recording,
            # Straight to the tracker: the dispatcher passes the clock.
            on_deliver=self.tracker.on_deliver,
            cache_policy=config.cache_policy,
            cache_rng_factory=(
                (lambda node_id: self.streams.stream(f"cache[{node_id}]"))
                if config.cache_policy == "random"
                else None
            ),
        )

        # --- subscriptions (stable regime: laid down via the oracle) -----
        self.subscription_assignment = assign_subscriptions(
            config.n_dispatchers,
            config.pi_max,
            self.pattern_space,
            self.streams.stream("subscriptions"),
        )
        self.system.apply_subscriptions(self.subscription_assignment)

        # --- recovery -----------------------------------------------------
        recovery_config = config.recovery_config()
        # Per-node gossip streams: Mersenne Twister at paper scale (frozen
        # draw sequences), 2-word splitmix64 state for the large sweeps.
        gossip_stream = (
            self.streams.compact_stream
            if config.compact_state
            else self.streams.stream
        )
        self.recoveries: List[RecoveryAlgorithm] = [
            create_recovery(
                config.algorithm,
                dispatcher,
                gossip_stream(f"gossip[{dispatcher.node_id}]"),
                recovery_config,
            )
            for dispatcher in self.system.dispatchers
        ]
        # The idealized acknowledgment comparator needs global knowledge
        # of each event's recipients (see repro.recovery.ack).
        for recovery in self.recoveries:
            if hasattr(recovery, "recipient_resolver"):
                recovery.recipient_resolver = self.system.expected_recipients

        # --- workload -----------------------------------------------------
        for dispatcher in self.system.dispatchers:
            dispatcher.on_publish = self._on_publish
        if config.workload_model == "aggregate":
            # One pooled process, one stream: O(1) workload state for any N.
            self.publishers = [
                AggregatePublisherPool(
                    self.system,
                    config.publish_rate,
                    self.streams.stream("workload"),
                )
            ]
        else:
            self.publishers = [
                PublisherProcess(
                    self.system,
                    node_id,
                    config.publish_rate,
                    self.streams.stream(f"workload[{node_id}]"),
                )
                for node_id in range(config.n_dispatchers)
            ]

        # --- reconfiguration ----------------------------------------------
        self.reconfiguration: Optional[ReconfigurationEngine] = None
        if config.reconfiguration_interval is not None:
            self.reconfiguration = ReconfigurationEngine(
                self.sim,
                self.network,
                self.streams.stream("reconfiguration"),
                interval=config.reconfiguration_interval,
                repair_delay=config.repair_delay,
                max_degree=config.max_degree,
                on_topology_changed=self.system.rebuild_routes,
            )

        # --- fault injection ----------------------------------------------
        # The "faults" stream is drawn only when injectors exist, so plans
        # that merely swap the loss model leave other streams untouched.
        self.fault_injector: Optional[FaultInjector] = None
        if plan is not None and plan.has_injectors():
            self.fault_injector = FaultInjector(
                self.sim,
                self.network,
                self.system,
                self.recoveries,
                self.publishers,
                self.streams.stream("faults"),
                plan,
            )

        self._receiver_pair_total = 0
        self._started = False
        self._wall_seconds = 0.0

    # ------------------------------------------------------------------
    # Hooks
    # ------------------------------------------------------------------
    def _on_publish(self, event: Event) -> None:
        expected = self.system.expected_recipients(event)
        self._receiver_pair_total += len(expected)
        self.tracker.on_publish(event, expected)

    # ------------------------------------------------------------------
    # Execution
    # ------------------------------------------------------------------
    def start(self) -> None:
        """Arm recovery timers, publishers, and the reconfiguration engine."""
        if self._started:
            return
        self._started = True
        for recovery in self.recoveries:
            recovery.start()
        for publisher in self.publishers:
            publisher.start()
        if self.reconfiguration is not None:
            self.reconfiguration.start()
        if self.fault_injector is not None:
            self.fault_injector.start()

    def run(self, until: Optional[float] = None) -> RunResult:
        """Run to ``until`` (default: the configured ``sim_time``) and
        summarize.  Can be called repeatedly with growing horizons."""
        horizon = self.config.sim_time if until is None else until
        self.start()
        # Wall-clock accounting feeds RunResult.wall_seconds for reporting
        # only; it never influences the event schedule or any random draw.
        wall_start = time.perf_counter()  # repro-lint: disable=REP002
        _gc_paused(self.sim.run)(until=horizon)
        self._wall_seconds += time.perf_counter() - wall_start  # repro-lint: disable=REP002
        return self.collect_result()

    # ------------------------------------------------------------------
    # Summarization
    # ------------------------------------------------------------------
    def collect_result(self) -> RunResult:
        config = self.config
        gossip_stats = GossipStats()
        losses_detected = losses_recovered = losses_abandoned = 0
        for recovery in self.recoveries:
            gossip_stats.merge(recovery.stats)
            detector = getattr(recovery, "detector", None)
            if detector is not None:
                losses_detected += detector.detected
                losses_recovered += detector.recovered
                losses_abandoned += detector.abandoned
        fault_stats = self._collect_fault_stats()
        counters = MessageCounters(self.network)
        events_published = sum(p.published for p in self.publishers)
        receivers_per_event = (
            self._receiver_pair_total / self.tracker.event_count()
            if self.tracker.event_count()
            else 0.0
        )
        return RunResult(
            config=config,
            delivery=self.tracker.stats(
                config.measure_start, config.effective_measure_end
            ),
            delivery_full=self.tracker.stats(),
            series=self.tracker.time_series(
                SERIES_BIN_WIDTH, 0.0, config.sim_time, include_recovery=True
            ),
            series_baseline=self.tracker.time_series(
                SERIES_BIN_WIDTH, 0.0, config.sim_time, include_recovery=False
            ),
            messages=counters.snapshot(),
            gossip_per_dispatcher=counters.gossip_per_dispatcher(),
            gossip_event_ratio=counters.gossip_event_ratio(),
            oob_messages=counters.oob_messages,
            recovery_load_skew=counters.recovery_load_skew(),
            gossip_stats=gossip_stats,
            losses_detected=losses_detected,
            losses_recovered=losses_recovered,
            losses_abandoned=losses_abandoned,
            receivers_per_event=receivers_per_event,
            tree_diameter=self.tree.diameter(),
            # Both path metrics are O(N) (Tree.distance_sums).  Past a
            # couple thousand nodes the strided-sample estimate stays so
            # that large-run results keep their recorded value; every
            # paper-scale run gets the exact mean.
            tree_average_path_length=(
                self.tree.average_path_length()
                if config.n_dispatchers <= 2000
                else self.tree.approx_average_path_length()
            ),
            reconfigurations=(
                self.reconfiguration.stats.breaks if self.reconfiguration else 0
            ),
            events_published=events_published,
            sim_events_processed=self.sim.events_processed,
            wall_clock_seconds=self._wall_seconds,
            unexpected_deliveries=self.tracker.unexpected_deliveries,
            duplicate_deliveries=self.tracker.duplicate_deliveries,
            faults=fault_stats,
        )

    def _collect_fault_stats(self) -> FaultStats:
        """Aggregate the fault layer's counters from every component."""
        stats = FaultStats()
        injector = self.fault_injector
        if injector is not None:
            stats.crashes = injector.stats.crashes
            stats.crashes_skipped = injector.stats.crashes_skipped
            stats.restarts = injector.stats.restarts
            stats.partitions = injector.stats.partitions
            stats.partition_links_cut = injector.stats.partition_links_cut
            stats.heals = injector.stats.heals
            stats.heal_links_restored = injector.stats.heal_links_restored
        stats.down_node_drops = self.network.down_drops
        factory = self._link_loss_factory
        if factory is not None:
            stats.burst_transitions += factory.transitions
            stats.burst_drops += factory.drops
        oob_model = self._oob_loss_model
        if oob_model is not None:
            stats.burst_transitions += oob_model.transitions
            stats.burst_drops += oob_model.drops
        for recovery in self.recoveries:
            peers = recovery.peers
            if peers is not None:
                stats.peer_timeouts += peers.timeouts
                stats.peer_suspicions += peers.suspicions
                stats.peer_skips += peers.skips
        return stats

    def __repr__(self) -> str:  # pragma: no cover - debug aid
        return (
            f"<Simulation {self.config.algorithm} N={self.config.n_dispatchers} "
            f"t={self.sim.now:.2f}/{self.config.sim_time}>"
        )

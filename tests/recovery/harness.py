"""Hand-wired mini systems for exercising recovery algorithms
deterministically (no workload processes; tests publish explicitly and
inject losses by toggling link error rates)."""

from __future__ import annotations

import random
from typing import Dict, Iterable, List, Optional, Tuple

from repro.network.network import Network, NetworkConfig
from repro.pubsub.pattern import PatternSpace
from repro.pubsub.system import PubSubSystem
from repro.recovery import ALGORITHMS, create_recovery
from repro.recovery.base import RecoveryConfig
from repro.sim.engine import Simulator
from repro.topology.tree import Tree

__all__ = ["RecoveryHarness"]


class RecoveryHarness:
    """A tiny pub-sub system with one recovery instance per dispatcher."""

    def __init__(
        self,
        tree: Tree,
        algorithm: str,
        subscriptions: Dict[int, Tuple[int, ...]],
        pattern_count: int = 10,
        buffer_size: int = 100,
        seed: int = 5,
        config: Optional[RecoveryConfig] = None,
        start: bool = True,
    ) -> None:
        self.sim = Simulator()
        self.network = Network(
            self.sim, NetworkConfig(error_rate=0.0), random.Random(seed)
        )
        self.deliveries: List[Tuple[int, object, bool]] = []
        algorithm_cls = ALGORITHMS[algorithm]
        self.system = PubSubSystem(
            self.sim,
            self.network,
            tree,
            PatternSpace(pattern_count),
            buffer_size,
            record_routes=algorithm_cls.requires_route_recording,
            on_deliver=self._on_deliver,
        )
        self.system.apply_subscriptions(subscriptions)
        self.config = config or RecoveryConfig(gossip_interval=0.05)
        rng = random.Random(seed + 1)
        self.recoveries = [
            create_recovery(
                algorithm,
                dispatcher,
                random.Random(rng.getrandbits(32)),
                self.config,
            )
            for dispatcher in self.system.dispatchers
        ]
        if start:
            for recovery in self.recoveries:
                recovery.start()

    # ------------------------------------------------------------------
    def _on_deliver(self, node_id, event, recovered, now):
        self.deliveries.append((node_id, event.event_id, recovered))

    def publish(self, node_id: int, patterns: Tuple[int, ...]):
        return self.system.publish(node_id, patterns)

    def publish_lossy(
        self, node_id: int, patterns: Tuple[int, ...], dead_links: Iterable[Tuple[int, int]]
    ):
        """Publish one event while the given links drop everything, then
        drain the in-flight traffic and restore the links."""
        for a, b in dead_links:
            self.network.link(a, b).set_error_rate(1.0)
        event = self.system.publish(node_id, patterns)
        self.run_for(0.01)
        for a, b in dead_links:
            self.network.link(a, b).set_error_rate(0.0)
        return event

    def run_for(self, duration: float) -> None:
        self.sim.run(until=self.sim.now + duration)

    # ------------------------------------------------------------------
    def delivered_to(self, node_id: int):
        return [eid for nid, eid, _ in self.deliveries if nid == node_id]

    def recovered_at(self, node_id: int):
        return [
            eid for nid, eid, recovered in self.deliveries if nid == node_id and recovered
        ]

    def recovery(self, node_id: int):
        return self.recoveries[node_id]

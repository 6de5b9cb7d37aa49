"""Gossip-only dissemination -- the hpcast-style comparator (Section V).

The paper's closest related work, hpcast [10], uses gossip "not just to
improve event delivery but as the only routing mechanism", an idea the
paper calls "simple and elegant" before listing its drawbacks:

1. events also reach non-interested nodes, and can reach the same node
   several times (overhead even without faults);
2. delivery is probabilistic even without faults;
3. gossip messages must carry *entire events*, not digests;
4. load concentrates on well-connected nodes holding big caches.

:class:`GossipDisseminationRecovery` implements a flat (non-hierarchical)
version of that idea on our substrate so the comparison can be run: tree
routing is disabled entirely; each dispatcher periodically forwards a
batch of recently learned events (full content, per drawback 3) to a
random subset of its overlay neighbors; receivers deliver matching events
locally, cache everything they see (drawback 1: they carry traffic for
patterns they do not subscribe to), and keep the epidemic going.

``benchmarks/test_ablation_gossip_only.py`` quantifies the paper's
critique: for the same delivery level, gossip-only dissemination moves an
order of magnitude more bytes than content-based routing plus epidemic
*recovery*.
"""

from __future__ import annotations

from typing import Any, List, Tuple

from repro.pubsub.dispatcher import Dispatcher
from repro.pubsub.event import Event, EventId
from repro.recovery.base import RecoveryAlgorithm, RecoveryConfig
from repro.sim.rng import RandomSource

__all__ = ["GossipDisseminationRecovery", "DisseminationGossip"]


class DisseminationGossip:
    """A batch of full events being disseminated epidemically.

    Unlike every digest in :mod:`repro.recovery.digest`, this payload
    carries the events themselves -- the paper's third drawback of the
    gossip-only approach.
    """

    __slots__ = ("gossiper", "events", "hops_left")

    def __init__(
        self, gossiper: int, events: Tuple[Event, ...], hops_left: int
    ) -> None:
        self.gossiper = gossiper
        self.events = events
        self.hops_left = hops_left

    def __repr__(self) -> str:  # pragma: no cover - debug aid
        return (
            f"<DisseminationGossip from={self.gossiper} "
            f"|events|={len(self.events)} ttl={self.hops_left}>"
        )


class GossipDisseminationRecovery(RecoveryAlgorithm):
    """Epidemic dissemination as the *only* transport (hpcast-style)."""

    __slots__ = ("_fresh", "_fresh_ids")

    name = "gossip-dissemination"

    #: events per gossip message (hpcast delegates aggregate interests;
    #: a flat batch cap plays the analogous bounding role here).
    BATCH_LIMIT = 24

    def __init__(
        self,
        dispatcher: Dispatcher,
        rng: RandomSource,
        config: RecoveryConfig,
    ) -> None:
        super().__init__(dispatcher, rng, config)
        dispatcher.tree_routing_enabled = False
        #: events learned since they were last gossiped, newest last.
        self._fresh: List[Event] = []
        self._fresh_ids: set[EventId] = set()

    # ------------------------------------------------------------------
    def _remember(self, event: Event) -> None:
        if event.event_id in self._fresh_ids:
            return
        self._fresh.append(event)
        self._fresh_ids.add(event.event_id)
        # Bound the hot buffer: oldest fresh events fall back to being
        # served from the normal cache only.
        overflow = len(self._fresh) - 4 * self.BATCH_LIMIT
        if overflow > 0:
            for stale in self._fresh[:overflow]:
                self._fresh_ids.discard(stale.event_id)
            del self._fresh[:overflow]

    def on_event_published(self, event: Event) -> None:
        self._remember(event)

    # ------------------------------------------------------------------
    def gossip_round(self) -> None:
        if not self._fresh:
            self.stats.rounds_skipped += 1
            return
        # Infect-and-die: each node forwards each event in exactly one of
        # its rounds; whether the epidemic reaches everyone is then
        # genuinely probabilistic (the paper's second drawback).
        batch = tuple(self._fresh[: self.BATCH_LIMIT])
        del self._fresh[: self.BATCH_LIMIT]
        for event in batch:
            self._fresh_ids.discard(event.event_id)
        payload = DisseminationGossip(
            self.node_id, batch, self.config.random_hop_limit
        )
        # Full event contents travel in the message (drawback 3): charge
        # the wire accordingly.
        size_bits = max(1, len(batch)) * 2048
        sent = 0
        p_forward = self.config.p_forward
        for neighbor in self.dispatcher.neighbors():
            if self.rng.random() < p_forward:
                self.dispatcher.send_gossip(neighbor, payload, size_bits=size_bits)
                sent += 1
        self.stats.gossip_sent += sent

    def handle_gossip(self, payload: Any, from_node: int) -> None:
        if not isinstance(payload, DisseminationGossip):
            return
        self.stats.gossip_handled += 1
        for event in payload.events:
            # Drawback 1 made explicit: everyone ingests, caches and
            # passes on everything new it sees, interested or not, to
            # keep the epidemic alive.
            if self.dispatcher.ingest_disseminated_event(event):
                self._remember(event)

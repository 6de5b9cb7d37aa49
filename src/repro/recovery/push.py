"""Proactive gossip push with positive digests (Section III-B, "Push").

Each round the gossiper:

1. chooses a pattern ``p`` uniformly from its *whole* subscription table --
   own and forwarded subscriptions alike, which "increases the chance of
   eventually finding all the dispatchers interested in the cached events";
2. builds a digest of all cached events matching ``p`` (a receiver reads
   only each entry's identifier and received-id row);
3. routes the gossip message along the dispatching tree as if it were an
   event matching ``p``, except each eligible neighbor is reached only with
   probability ``P_forward``.

A dispatcher receiving the message and locally subscribed to ``p`` compares
the digest against the events it has ever received and requests the missing
ones from the gossiper out of band; the gossiper replies with copies of the
events (handled by the base class' request handler).
"""

from __future__ import annotations

from typing import Any

from repro.recovery.base import RecoveryAlgorithm
from repro.recovery.digest import PushGossip

__all__ = ["PushRecovery"]


class PushRecovery(RecoveryAlgorithm):
    """The paper's push algorithm."""

    __slots__ = ()

    name = "push"

    def gossip_round(self) -> None:
        patterns = self.dispatcher.table.patterns()
        if not patterns:
            self.stats.rounds_skipped += 1
            return
        pattern = patterns[self.rng.randrange(len(patterns))]
        events = self.dispatcher.cache.matching_events(pattern)
        if len(events) > self.config.digest_limit:
            # Advertise the most recent events: older ones are both closer
            # to eviction and more likely to have been recovered already.
            events = events[-self.config.digest_limit :]
        payload = PushGossip(self.node_id, pattern, tuple(events))
        self.forward_along_pattern(pattern, payload, exclude=None)

    def handle_gossip(self, payload: Any, from_node: int) -> None:
        if not isinstance(payload, PushGossip):
            return
        self.stats.gossip_handled += 1
        if self.dispatcher.table.is_local(payload.pattern):
            missing = self.dispatcher.unreceived(payload.events)
            if missing:
                self.dispatcher.send_oob_request(payload.gossiper, missing)
                self.stats.requests_sent += 1
        self.forward_along_pattern(payload.pattern, payload, exclude=from_node)

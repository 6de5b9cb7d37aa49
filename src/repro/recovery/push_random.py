"""Random push -- the control the paper drops from its charts.

Section IV: *"Simulations of a similar random push approach are omitted
since their performance is extremely poor."*  We implement it anyway so the
claim can be checked (see ``benchmarks/test_ablation_random_push.py``):
positive digests over a randomly chosen cached pattern, forwarded to random
neighbors with a hop budget, irrespective of subscriptions.

It performs poorly for the reason the paper implies: the digest for a
pattern reaches mostly dispatchers that do not care about that pattern,
so each round wastes its budget with high probability.
"""

from __future__ import annotations

from typing import Any

from repro.recovery.base import RecoveryAlgorithm
from repro.recovery.digest import RandomPushGossip

__all__ = ["RandomPushRecovery"]


class RandomPushRecovery(RecoveryAlgorithm):
    """Positive digests, uniformly random routing."""

    __slots__ = ()

    name = "random-push"

    def gossip_round(self) -> None:
        patterns = self.dispatcher.table.patterns()
        if not patterns:
            self.stats.rounds_skipped += 1
            return
        pattern = patterns[self.rng.randrange(len(patterns))]
        events = self.dispatcher.cache.matching_events(pattern)
        if len(events) > self.config.digest_limit:
            events = events[-self.config.digest_limit :]
        payload = RandomPushGossip(
            self.node_id, pattern, tuple(events), self.config.random_hop_limit
        )
        self.forward_randomly(payload, exclude=None)

    def handle_gossip(self, payload: Any, from_node: int) -> None:
        if not isinstance(payload, RandomPushGossip):
            return
        self.stats.gossip_handled += 1
        if self.dispatcher.table.is_local(payload.pattern):
            missing = self.dispatcher.unreceived(payload.events)
            if missing:
                self.dispatcher.send_oob_request(payload.gossiper, missing)
                self.stats.requests_sent += 1
        if payload.hops_left > 1:
            self.forward_randomly(payload.next_hop(), exclude=from_node)

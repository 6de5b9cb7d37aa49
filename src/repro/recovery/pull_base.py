"""Shared machinery of the pull family.

All pull variants share: sequence-number loss detection feeding the ``Lost``
buffer, negative digests served (and shrunk) from caches along the way, and
the out-of-band retransmission path.  Publisher-based routing additionally
reads the ``Routes`` buffer, a view of the routes the dispatcher learns
from event messages.

Both the subscriber-based and the publisher-based mechanics live here, so
that :class:`~repro.recovery.pull_combined.CombinedPullRecovery` can flip
between them per round, and so that every pull dispatcher can serve and
forward either kind of digest.
"""

from __future__ import annotations

from typing import Any, Optional, Tuple

from repro.pubsub.dispatcher import Dispatcher
from repro.recovery.base import RecoveryAlgorithm, RecoveryConfig
from repro.recovery.digest import PublisherPullGossip, SubscriberPullGossip
from repro.recovery.loss_detector import LossDetector
from repro.recovery.routes import RoutesBuffer
from repro.sim.rng import RandomSource

__all__ = ["PullRecoveryBase"]


class PullRecoveryBase(RecoveryAlgorithm):
    """Base for subscriber-based, publisher-based, combined and random pull."""

    __slots__ = ("detector", "routes", "_local_patterns_cache", "_sim")

    uses_loss_detection = True

    def __init__(
        self,
        dispatcher: Dispatcher,
        rng: RandomSource,
        config: RecoveryConfig,
    ) -> None:
        super().__init__(dispatcher, rng, config)
        self.detector = LossDetector(
            capacity=config.lost_capacity, give_up_age=config.give_up_age
        )
        # Bound here: attach_recovery runs in the base constructor, before
        # this slot exists.
        self.routes = RoutesBuffer(dispatcher.routes)
        self._local_patterns_cache: Optional[frozenset] = None
        # The simulator never changes for the lifetime of a dispatcher;
        # aliasing it (and reading the clock via the raw ``_now`` slot
        # rather than the ``now`` property) trims per-received-event cost.
        self._sim = dispatcher.sim

    # ------------------------------------------------------------------
    # Loss detection
    # ------------------------------------------------------------------
    def on_restart(self) -> None:
        """Crash-recovery restart: volatile pull state does not survive.

        The loss-detector streams are rebaselined (the first post-restart
        arrival of each stream becomes the new reference point -- a node
        cannot know what it missed while its memory was gone), learned
        routes are forgotten, and the subscription-pattern cache is
        re-derived from the table.
        """
        super().on_restart()
        self.detector.reset(resync=True)
        self.routes.clear()
        self._local_patterns_cache = None

    def on_event_received(self, event, route) -> None:
        local_patterns = self._local_patterns_cache
        if local_patterns is None:
            # Local subscriptions are stable during a run (the paper's
            # stable-subscription regime): derive the set once.
            local_patterns = self._local_patterns_cache = frozenset(
                self.dispatcher.table.local_patterns()
            )
        self.detector.observe(event, local_patterns, self._sim._now)

    # ------------------------------------------------------------------
    # Subscriber-based mechanics
    # ------------------------------------------------------------------
    def subscriber_round(self) -> bool:
        """One subscriber-based gossip round.

        Returns ``True`` if a gossip message was emitted, ``False`` if the
        round was skipped (nothing lost -- the reactive pull "may skip some
        gossip rounds", which is why pull wastes less bandwidth when the
        network is mostly reliable, Figure 10).
        """
        now = self.dispatcher.sim.now
        patterns = self.detector.patterns_with_losses(now)
        if not patterns:
            return False
        pattern = patterns[self.rng.randrange(len(patterns))]
        entries = tuple(
            self.detector.entries_for_pattern(pattern, self.config.digest_limit)
        )
        payload = SubscriberPullGossip(self.node_id, pattern, entries)
        self.forward_along_pattern(pattern, payload, exclude=None)
        return True

    def _handle_subscriber_gossip(
        self, payload: SubscriberPullGossip, from_node: int
    ) -> None:
        self.stats.gossip_handled += 1
        remaining = self.serve_from_cache(payload.entries, payload.gossiper)
        if remaining:
            self.forward_along_pattern(
                payload.pattern, payload.replace_entries(remaining), exclude=from_node
            )

    # ------------------------------------------------------------------
    # Publisher-based mechanics
    # ------------------------------------------------------------------
    def publisher_round(self) -> bool:
        """One publisher-based gossip round.

        Picks a source with pending losses (and a known route), sends the
        negative digest hop-by-hop back along the recorded route.  Returns
        ``True`` if a gossip message was emitted.
        """
        now = self.dispatcher.sim.now
        sources = [
            source
            for source in self.detector.sources_with_losses(now)
            if source in self.routes
        ]
        if not sources:
            return False
        source = sources[self.rng.randrange(len(sources))]
        route = self.routes.route_to(source)
        assert route is not None
        peers = self.peers
        if peers is not None and not peers.allow(route[0]):
            return False  # first hop suspected/backing off: skip this round
        entries = tuple(
            self.detector.entries_for_source(source, self.config.digest_limit)
        )
        payload = PublisherPullGossip(self.node_id, source, route, entries)
        self.dispatcher.send_gossip(route[0], payload)
        if peers is not None:
            peers.note_sent(route[0])
        self.stats.gossip_sent += 1
        return True

    def _handle_publisher_gossip(
        self, payload: PublisherPullGossip, from_node: int
    ) -> None:
        self.stats.gossip_handled += 1
        remaining = self.serve_from_cache(payload.entries, payload.gossiper)
        if not remaining:
            return
        advanced = payload.advance(remaining)
        if not advanced.remaining_route:
            # We are the last recorded hop (normally the source itself);
            # whatever is still unmet was evicted everywhere along the way.
            return
        next_hop = advanced.remaining_route[0]
        peers = self.peers
        if peers is not None and not peers.allow(next_hop):
            return  # digest dies here; the gossiper retries a later round
        self.dispatcher.send_gossip(next_hop, advanced)
        if peers is not None:
            peers.note_sent(next_hop)
        self.stats.gossip_sent += 1

    # ------------------------------------------------------------------
    def handle_gossip(self, payload: Any, from_node: int) -> None:
        if isinstance(payload, SubscriberPullGossip):
            self._handle_subscriber_gossip(payload, from_node)
        elif isinstance(payload, PublisherPullGossip):
            self._handle_publisher_gossip(payload, from_node)
        # Other payload kinds (push digests in mixed setups) are ignored.

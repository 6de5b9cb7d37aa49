"""Common machinery of every recovery algorithm.

All the paper's algorithms share one skeleton (Section III-B): each
dispatcher periodically starts a gossip round; the gossiper builds a digest
and sends it to some neighbors, which propagate it along the dispatching
tree; missing events are finally transferred over the out-of-band channel.

:class:`RecoveryAlgorithm` implements the skeleton (the timer with random
initial phase, statistics, the out-of-band retransmission handler) and
leaves :meth:`gossip_round` / :meth:`handle_gossip` to subclasses.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Any, Callable, Optional, Tuple

from repro.pubsub.dispatcher import Dispatcher
from repro.pubsub.event import EventId
from repro.recovery.degrade import DegradationConfig, PeerTracker
from repro.sim.timers import PeriodicTimer
from repro.sim.rng import RandomSource

__all__ = ["RecoveryConfig", "GossipStats", "RecoveryAlgorithm"]


@dataclass(frozen=True, slots=True)
class RecoveryConfig:
    """Tunables shared by all recovery algorithms.

    Defaults follow Figure 2 where the paper gives a value, and DESIGN.md
    Section 2 where it does not (``p_forward``, ``p_source``, digest and
    hop limits).
    """

    #: The paper's T: seconds between two gossip rounds of one dispatcher.
    gossip_interval: float = 0.03
    #: Probability of forwarding a gossip message to each eligible neighbor.
    p_forward: float = 0.8
    #: Combined pull: probability that a round is publisher-based.
    p_source: float = 0.5
    #: Hop budget for the randomly routed variants.
    random_hop_limit: int = 10
    #: Maximum entries carried by one digest (push and pull).
    digest_limit: int = 400
    #: Capacity of the Lost buffer (None = unbounded).
    lost_capacity: Optional[int] = None
    #: Give up on losses older than this many seconds (None = never).
    give_up_age: Optional[float] = None
    #: Adaptive push (extension): interval bounds and adaptation factor.
    adaptive_min_interval: float = 0.01
    adaptive_max_interval: float = 0.24
    adaptive_factor: float = 1.5
    #: Graceful degradation under faults: per-peer timeout/backoff/suspicion
    #: (see :mod:`repro.recovery.degrade`).  ``None`` (default) disables the
    #: machinery entirely and leaves draw sequences untouched.
    degradation: Optional[DegradationConfig] = None

    def __post_init__(self) -> None:
        if self.gossip_interval <= 0:
            raise ValueError(f"gossip_interval must be > 0, got {self.gossip_interval}")
        if not 0.0 <= self.p_forward <= 1.0:
            raise ValueError(f"p_forward must be in [0, 1], got {self.p_forward}")
        if not 0.0 <= self.p_source <= 1.0:
            raise ValueError(f"p_source must be in [0, 1], got {self.p_source}")
        if self.random_hop_limit < 1:
            raise ValueError("random_hop_limit must be >= 1")
        if self.digest_limit < 1:
            raise ValueError("digest_limit must be >= 1")


@dataclass(slots=True)
class GossipStats:
    """Per-dispatcher recovery statistics."""

    rounds: int = 0
    rounds_skipped: int = 0
    gossip_sent: int = 0
    gossip_handled: int = 0
    requests_sent: int = 0
    requests_served: int = 0
    retransmissions_sent: int = 0
    cache_short_circuits: int = 0

    def merge(self, other: "GossipStats") -> None:
        self.rounds += other.rounds
        self.rounds_skipped += other.rounds_skipped
        self.gossip_sent += other.gossip_sent
        self.gossip_handled += other.gossip_handled
        self.requests_sent += other.requests_sent
        self.requests_served += other.requests_served
        self.retransmissions_sent += other.retransmissions_sent
        self.cache_short_circuits += other.cache_short_circuits


class RecoveryAlgorithm:
    """Base class: gossip timer, statistics, out-of-band plumbing.

    Parameters
    ----------
    dispatcher:
        The dispatcher this instance serves (one recovery instance per
        dispatcher).
    rng:
        Node-local random stream (gossip choices must not depend on global
        event interleaving).
    config:
        Shared tunables.
    """

    # One instance per dispatcher per run, but tens of thousands of runs
    # sweep the parameter grid; the bound-forwarding attributes make the
    # per-instance __dict__ the widest in the protocol layer (REP203).
    __slots__ = ("dispatcher", "rng", "config", "stats", "peers",
                 "forward_along_pattern", "forward_randomly", "timer")

    #: Registry name; overridden by subclasses.
    name = "abstract"
    #: Whether the scenario builder must enable route recording on event
    #: messages (publisher-based and combined pull need it).
    requires_route_recording = False
    #: Whether the algorithm detects losses via sequence numbers.
    uses_loss_detection = False

    def __init__(
        self,
        dispatcher: Dispatcher,
        rng: RandomSource,
        config: RecoveryConfig,
    ) -> None:
        self.dispatcher = dispatcher
        self.rng = rng
        self.config = config
        self.stats = GossipStats()
        #: Peer liveness tracker (graceful degradation); ``None`` when
        #: ``config.degradation`` is unset, which keeps every fault-free
        #: code path and draw sequence identical to the legacy behaviour.
        self.peers: Optional[PeerTracker] = None
        if config.degradation is not None:
            self.peers = PeerTracker(
                dispatcher.sim, rng, config.degradation, config.gossip_interval
            )
        # Gossip-forwarding primitives, bound per-instance: the tracked
        # variants (suspicion filtering + probe bookkeeping) cost per-copy
        # work, so they are only installed when graceful degradation is
        # actually configured (docs/PERFORMANCE.md, "Setup-time method
        # binding").  The fault-free path carries zero ``peers`` checks.
        self.forward_along_pattern: Callable[[int, Any, Optional[int]], int]
        self.forward_randomly: Callable[[Any, Optional[int]], int]
        if self.peers is not None:
            self.forward_along_pattern = self._forward_along_pattern_tracked
            self.forward_randomly = self._forward_randomly_tracked
        else:
            self.forward_along_pattern = self._forward_along_pattern_plain
            self.forward_randomly = self._forward_randomly_plain
        phase = rng.random() * config.gossip_interval
        self.timer = PeriodicTimer(
            dispatcher.sim, config.gossip_interval, self._round, phase=phase
        )
        dispatcher.attach_recovery(self)

    # ------------------------------------------------------------------
    @property
    def node_id(self) -> int:
        return self.dispatcher.node_id

    def start(self) -> None:
        """Begin gossiping (first round after the random initial phase)."""
        self.timer.start()

    def stop(self) -> None:
        self.timer.stop()

    def _round(self) -> None:
        self.stats.rounds += 1
        self.gossip_round()

    # ------------------------------------------------------------------
    # Hooks for subclasses
    # ------------------------------------------------------------------
    def gossip_round(self) -> None:
        """Run one gossip round as the gossiper role."""
        raise NotImplementedError

    def handle_gossip(self, payload: Any, from_node: int) -> None:
        """Process a gossip message received from a tree neighbor."""
        raise NotImplementedError

    #: ``on_event_received(event, route)`` is called once per newly received
    #: event that matches a local subscription; ``route`` is the message's
    #: forward route, or ``None`` (out-of-band recovery, route recording
    #: off).  Subclasses with per-event state define it as a method; left
    #: ``None`` (push), the dispatcher makes no call per received event.
    on_event_received: Optional[Callable[[Any, Any], None]] = None

    def on_event_published(self, event) -> None:
        """Observe a local publish (before routing).

        Only the acknowledgment-based comparator uses this; the epidemic
        algorithms need no publisher-side bookkeeping beyond the cache.
        """

    def on_restart(self) -> None:
        """Wipe volatile recovery state after a crash-recovery restart.

        Called by the fault injector between :meth:`stop` (at crash time)
        and :meth:`start` (at restart time).  The base clears the peer
        tracker; subclasses additionally reset their loss-detection and
        routing buffers (volatile memory does not survive a crash).
        """
        if self.peers is not None:
            self.peers.reset()

    # ------------------------------------------------------------------
    # Shared primitives.  ``forward_along_pattern``/``forward_randomly``
    # are instance attributes bound in ``__init__`` to the plain variants
    # (no degradation machinery) or the tracked ones (suspicion filtering
    # plus probe bookkeeping).
    # ------------------------------------------------------------------
    def _forward_along_pattern_plain(
        self, pattern: int, payload: Any, exclude: Optional[int]
    ) -> int:
        """Send ``payload`` toward subscribers of ``pattern``.

        Each neighbor with a subscription for ``pattern`` (other than
        ``exclude``, the previous hop) receives the gossip message with
        probability ``P_forward``.  Returns the number of copies sent.
        """
        sent = 0
        p_forward = self.config.p_forward
        for neighbor in self.dispatcher.gossip_targets(pattern, exclude):
            if self.rng.random() < p_forward:
                self.dispatcher.send_gossip(neighbor, payload)
                sent += 1
        self.stats.gossip_sent += sent
        return sent

    def _forward_along_pattern_tracked(
        self, pattern: int, payload: Any, exclude: Optional[int]
    ) -> int:
        """Pattern-steered forwarding with graceful degradation: suspected
        or backing-off peers are skipped and probes are accounted."""
        sent = 0
        p_forward = self.config.p_forward
        peers = self.peers
        assert peers is not None  # bound only when degradation is configured
        for neighbor in self.dispatcher.gossip_targets(pattern, exclude):
            if not peers.allow(neighbor):
                continue  # suspected or backing off: spend the copy elsewhere
            if self.rng.random() < p_forward:
                self.dispatcher.send_gossip(neighbor, payload)
                peers.note_sent(neighbor)
                sent += 1
        self.stats.gossip_sent += sent
        return sent

    def _forward_randomly_plain(self, payload: Any, exclude: Optional[int]) -> int:
        """Forward ``payload`` to *one* uniformly random neighbor.

        This is the "routing performed entirely at random" of the paper's
        random-pull/-push controls: a random walk over the overlay
        (previous hop excluded when another choice exists), with the hop
        budget carried in the payload.  Returns the number of copies sent
        (0 when the node has no usable neighbor).
        """
        neighbors = [
            neighbor
            for neighbor in self.dispatcher.neighbors()
            if neighbor != exclude
        ]
        if not neighbors:
            neighbors = self.dispatcher.neighbors()
            if not neighbors:
                return 0
        choice = neighbors[self.rng.randrange(len(neighbors))]
        self.dispatcher.send_gossip(choice, payload)
        self.stats.gossip_sent += 1
        return 1

    def _forward_randomly_tracked(self, payload: Any, exclude: Optional[int]) -> int:
        """Random-walk forwarding with suspected peers filtered out."""
        peers = self.peers
        assert peers is not None  # bound only when degradation is configured
        neighbors = [
            neighbor
            for neighbor in self.dispatcher.neighbors()
            if neighbor != exclude and not peers.is_suspected(neighbor)
        ]
        if not neighbors:
            # No non-suspected forward choice: fall back to any neighbor
            # rather than stalling the walk (suspicion may be a false alarm).
            neighbors = self.dispatcher.neighbors()
            if not neighbors:
                return 0
        choice = neighbors[self.rng.randrange(len(neighbors))]
        self.dispatcher.send_gossip(choice, payload)
        peers.note_sent(choice)
        self.stats.gossip_sent += 1
        return 1

    def handle_oob_request(
        self, payload: Tuple[EventId, ...], from_node: int
    ) -> None:
        """Serve a push-style request: retransmit every cached event asked
        for.  Requests for events already evicted are silently unmet (the
        requester will try again at a later gossip round)."""
        self.stats.requests_served += 1
        for event_id in payload:
            event = self.dispatcher.cache.get(event_id)
            if event is not None:
                self.dispatcher.send_oob_event(from_node, event)
                self.stats.retransmissions_sent += 1

    def serve_from_cache(self, entries, requester: int):
        """Pull-style short-circuit: retransmit the cached subset of a
        negative digest and return the entries still unmet."""
        published = self.dispatcher.event_registry.published
        events, remaining = self.dispatcher.cache.split_loss_keys(entries, published)
        if events:
            for event in events:
                self.dispatcher.send_oob_event(requester, event)
            self.stats.retransmissions_sent += len(events)
            self.stats.cache_short_circuits += len(events)
        return remaining

    def __repr__(self) -> str:  # pragma: no cover - debug aid
        return f"<{type(self).__name__} node={self.node_id} rounds={self.stats.rounds}>"

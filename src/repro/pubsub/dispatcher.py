"""The dispatcher: one node of the dispatching network.

A dispatcher implements the best-effort behaviour of Section II:

* it accepts *local* subscriptions (its clients') and propagates them along
  the tree with per-direction deduplication;
* it publishes events on behalf of its clients, tagging them at the source
  with per-(source, pattern) sequence numbers (Section III-B's
  loss-detection scheme) and routing them on the reverse paths laid down by
  subscriptions;
* it caches events for which it is publisher or subscriber in the FIFO
  buffer;
* it hands gossip traffic and loss-detection opportunities to the attached
  :class:`RecoveryAlgorithm` (see :mod:`repro.recovery`), and offers the
  primitives recovery needs: pattern-steered gossip forwarding, out-of-band
  unicast, and cache lookups.

Clients are not modelled explicitly (the paper folds them into their
dispatcher, and so do we).
"""

from __future__ import annotations

from typing import Any, Callable, Dict, Optional, Protocol, Tuple

from repro.network.message import Message, MessageKind
from repro.network.network import Network
from repro.pubsub.cache import EventCache
from repro.pubsub.event import Event, EventId, EventIdRegistry
from repro.pubsub.pattern import LOCAL, PatternSpace
from repro.pubsub.subscription import SubscriptionTable
from repro.sim.engine import Simulator

__all__ = ["Dispatcher", "RecoveryHooks", "SUBSCRIBE", "UNSUBSCRIBE"]

#: Subscription message operations.
SUBSCRIBE = 1
UNSUBSCRIBE = 2

# Hot-path aliases: the receive dispatch runs once per delivered message
# (hundreds of thousands of times per run); a module global is one dict
# lookup where ``MessageKind.EVENT`` is two.  IntEnum members are
# singletons, so identity comparison is exact.
_EVENT = MessageKind.EVENT
_GOSSIP = MessageKind.GOSSIP
_SUBSCRIPTION = MessageKind.SUBSCRIPTION
_OOB_REQUEST = MessageKind.OOB_REQUEST
_OOB_EVENT = MessageKind.OOB_EVENT

#: Route annotation attached to event messages: tuple of dispatcher ids the
#: message traversed so far (publisher first).  ``None`` when route
#: recording is disabled.
Route = Optional[Tuple[int, ...]]

#: ``(node_id, event, recovered, now)``, called at each local delivery.
DeliveryCallback = Callable[[int, Event, bool, float], None]


class RecoveryHooks(Protocol):
    """What a recovery algorithm exposes to its dispatcher.

    Implemented by :class:`repro.recovery.base.RecoveryAlgorithm`; declared
    here as a protocol so the pub-sub layer does not import the recovery
    package.
    """

    #: Peer liveness tracker (``repro.recovery.degrade.PeerTracker``) or
    #: ``None`` when graceful degradation is disabled.
    peers: Optional[Any]

    #: Observer ``(event, route)``, called once per newly received event
    #: that matches a local subscription, or ``None`` for algorithms that
    #: keep no per-event state (no call per hop).
    on_event_received: Optional[Callable[[Event, Route], None]]

    def on_event_published(self, event: Event) -> None: ...

    def on_restart(self) -> None: ...

    def handle_gossip(self, payload: Any, from_node: int) -> None: ...

    def handle_oob_request(self, payload: Any, from_node: int) -> None: ...


class Dispatcher:
    """A dispatching server of the content-based publish-subscribe network.

    One instance per simulated node (REP203): the class is slotted, and
    the swappable entry points (``receive``, ``receive_oob``,
    ``send_gossip``, ``on_deliver``, ``on_publish``) are instance
    attributes precisely so rebinding them needs no ``__dict__``.

    Parameters
    ----------
    node_id:
        Integer identity within the network.
    sim, network:
        Simulation engine and the network the dispatcher is attached to.
    pattern_space:
        The universe of patterns (Π).
    buffer_size:
        β, the FIFO event-cache capacity.
    event_registry:
        The system's received-id store (one per :class:`~repro.pubsub.
        system.PubSubSystem`); this node owns one bit column of it.
    record_routes:
        When true, event messages accumulate the dispatcher ids they
        traverse, and ``routes`` keeps the forward route of the latest
        event from each source (required by publisher-based pull).
    on_deliver:
        Callback ``(node_id, event, recovered, now)`` invoked at each local
        delivery; the scenario builder binds it straight to the metrics
        layer's ``DeliveryTracker.on_deliver``.
    """

    __slots__ = ("node_id", "sim", "network", "pattern_space", "table",
                 "cache", "routes", "on_deliver", "on_publish",
                 "tree_routing_enabled", "recovery", "receive",
                 "receive_oob", "send_gossip", "send_oob_request",
                 "observe_event", "event_registry", "seen", "seen_col",
                 "seen_bit", "_match_memo", "_next_event_seq")

    def __init__(
        self,
        node_id: int,
        sim: Simulator,
        network: Network,
        pattern_space: PatternSpace,
        buffer_size: int,
        event_registry: EventIdRegistry,
        record_routes: bool = False,
        on_deliver: Optional[DeliveryCallback] = None,
        cache_policy: str = "fifo",
        cache_rng=None,
    ) -> None:
        self.node_id = node_id
        self.sim = sim
        self.network = network
        self.pattern_space = pattern_space
        self.table = SubscriptionTable(pattern_space.size)
        # The table's match memo, probed inline on every hop (the table
        # clears it in place, so this reference never goes stale).
        self._match_memo = self.table._match_cache
        self.cache = EventCache(buffer_size, policy=cache_policy, rng=cache_rng)
        #: source -> forward route of its latest event (publisher first,
        #: previous hop last), wrapped by pull's ``RoutesBuffer``.  Routes
        #: are recorded iff it is not ``None`` (no flag slot: one more slot
        #: would grow every dispatcher by 16 bytes).
        self.routes: Optional[Dict[int, Tuple[int, ...]]] = (
            {} if record_routes else None
        )
        self.on_deliver = on_deliver
        #: invoked with the fresh event right after creation, before local
        #: delivery and forwarding (metrics register expectations here).
        self.on_publish: Optional[Callable[[Event], None]] = None
        #: when False, published/received events are NOT forwarded along
        #: the tree -- used by gossip-only dissemination (the hpcast-style
        #: comparator), where epidemic exchange is the sole transport.
        self.tree_routing_enabled: bool = True
        self.recovery: Optional[RecoveryHooks] = None
        #: the recovery's event observer (bound by attach_recovery), if any.
        self.observe_event: Optional[Callable[[Event, Route], None]] = None
        # Network-facing entry points, bound per-instance so the per-message
        # path never re-tests whether peer-liveness tracking (graceful
        # degradation) is configured: attach_recovery swaps in the tracked
        # variants only when a PeerTracker exists (docs/PERFORMANCE.md,
        # "Setup-time method binding").
        self.receive: Callable[[Message, int], None] = self._receive_plain
        self.receive_oob: Callable[[Message, int], None] = self._receive_oob_plain
        # Outbound gossip/requests, likewise instance bindings (spies
        # rebind them).
        self.send_gossip: Callable[..., None] = self._send_gossip
        self.send_oob_request: Callable[[int, Any], None] = self._send_oob_request

        #: Every event ever received here (normally or via recovery), for
        #: duplicate suppression and push-digest checks: bit ``seen_bit``
        #: of byte ``event.row + seen_col`` of the system-wide matrix.
        #: ``seen`` is the registry's bytearray itself, grown in place.
        self.event_registry = event_registry
        self.seen = event_registry.seen
        self.seen_col = node_id >> 3
        self.seen_bit = 1 << (node_id & 7)
        #: next event-id sequence number for events published here.
        self._next_event_seq = 1

    # ------------------------------------------------------------------
    # Wiring
    # ------------------------------------------------------------------
    def attach_recovery(self, recovery: RecoveryHooks) -> None:
        self.recovery = recovery
        # getattr: stub recovery objects in tests may omit the observer.
        self.observe_event = getattr(recovery, "on_event_received", None)
        # getattr: stub recovery objects in tests may omit ``peers``.
        if getattr(recovery, "peers", None) is not None:
            # Graceful degradation is on: inbound traffic must feed the
            # peer-liveness tracker.  Without it the plain variants stay
            # bound and the hot path carries no tracking work at all.
            self.receive = self._receive_tracked
            self.receive_oob = self._receive_oob_tracked

    def neighbors(self) -> list[int]:
        return self.network.neighbors(self.node_id)

    # ------------------------------------------------------------------
    # Subscribing (protocol-based; the scenario builder may instead lay
    # tables down via the oracle in repro.pubsub.system)
    # ------------------------------------------------------------------
    def subscribe(self, pattern: int) -> None:
        """Subscribe a local client to ``pattern`` and propagate.

        Propagation uses the paper's optimization: the subscription is
        forwarded to each neighbor at most once per pattern ("avoiding
        subscription forwarding of the same event pattern in the same
        direction"), tracked by the table's forwarded marks.
        """
        self.pattern_space.validate(pattern)
        self.table.add(pattern, LOCAL)
        self._propagate_subscription(pattern, exclude=None)

    def unsubscribe(self, pattern: int) -> None:
        """Remove the local subscription for ``pattern`` and propagate."""
        self.table.remove(pattern, LOCAL)
        self._propagate_unsubscription(pattern)

    def _propagate_subscription(self, pattern: int, exclude: Optional[int]) -> None:
        for neighbor in self.neighbors():
            if neighbor == exclude:
                continue
            if not self.table.mark_forwarded(pattern, neighbor):
                continue
            message = Message(
                MessageKind.SUBSCRIPTION, (SUBSCRIBE, pattern), self.node_id
            )
            self.network.send(self.node_id, neighbor, message)

    def _propagate_unsubscription(self, pattern: int) -> None:
        """Withdraw the subscription from neighbors that no longer need it.

        We still need events for ``pattern`` from neighbor ``m`` iff some
        direction other than ``m`` remains in our table; otherwise the
        subscription previously forwarded to ``m`` is withdrawn.
        """
        remaining = set(self.table.directions(pattern))
        for neighbor in self.neighbors():
            if not self.table.was_forwarded(pattern, neighbor):
                continue
            if remaining - {neighbor}:
                continue
            self.table.unmark_forwarded(pattern, neighbor)
            message = Message(
                MessageKind.SUBSCRIPTION, (UNSUBSCRIBE, pattern), self.node_id
            )
            self.network.send(self.node_id, neighbor, message)

    def _handle_subscription(self, payload: Tuple[int, int], from_node: int) -> None:
        operation, pattern = payload
        if operation == SUBSCRIBE:
            self.table.add(pattern, from_node)
            self._propagate_subscription(pattern, exclude=from_node)
        else:
            self.table.remove(pattern, from_node)
            self._propagate_unsubscription(pattern)

    # ------------------------------------------------------------------
    # Publishing and event routing
    # ------------------------------------------------------------------
    def publish(self, patterns: Tuple[int, ...]) -> Event:
        """Publish an event containing ``patterns``.

        The event is tagged at the source with a fresh per-(source, pattern)
        sequence number for *every* pattern it contains -- the paper notes
        this is possible because subscription forwarding makes subscriptions
        (and hence the pattern universe) known everywhere, and costs the
        publisher a full match against its subscription table.
        """
        for pattern in patterns:
            self.pattern_space.validate(pattern)
        if len(set(patterns)) != len(patterns):
            raise ValueError(f"event patterns must be distinct, got {patterns}")
        # Intern the content once at the source: every copy of the event
        # shares one canonical pattern tuple, and downstream hot paths key
        # their match memos on the small ``content_id`` int.
        canonical, content_id = self.pattern_space.intern_content(
            tuple(sorted(patterns))
        )
        event_id = EventId(self.node_id, self._next_event_seq)
        streams = self.event_registry.published.setdefault(self.node_id, {})
        pattern_seqs: Dict[int, int] = {}
        for pattern in patterns:
            ids = streams.setdefault(pattern, [])
            ids.append(event_id)
            pattern_seqs[pattern] = len(ids)  # the loss key names this event
        event = Event(
            event_id,
            canonical,
            pattern_seqs,
            self.sim.now,
            content_id,
            self.event_registry.new_row(),
        )
        self._next_event_seq += 1

        if self.on_publish is not None:
            self.on_publish(event)
        if self.recovery is not None:
            self.recovery.on_event_published(event)
        self.seen[event.row + self.seen_col] |= self.seen_bit
        directions = self.table.matching_directions_for(content_id, canonical)
        if directions and directions[0] == LOCAL:
            if self.on_deliver is not None:
                self.on_deliver(self.node_id, event, False, self.sim._now)
        # "Each dispatcher caches only events for which it is either the
        # publisher or a subscriber" -- the publisher always caches.
        self.cache.insert(event)
        route: Route = (self.node_id,) if self.routes is not None else None
        self._forward_event(event, route, None, directions)
        return event

    def _forward_event(
        self,
        event: Event,
        route: Route,
        exclude: Optional[int],
        directions: Tuple[int, ...],
    ) -> None:
        """Forward ``event`` to every matching direction but ``exclude``;
        ``directions`` is the caller's (memoized) sorted direction tuple."""
        if not directions or not self.tree_routing_enabled:
            return
        node_id = self.node_id
        # Straight to the link layer: ``Network.send`` is two dict lookups
        # plus a dispatch on the bound ``link.transmit`` -- going through it
        # costs one extra frame per copy on the hottest path in the whole
        # simulator.  The adjacency row dict is created once per node and
        # mutated in place by reconfiguration, so reading it here always
        # sees the live topology; a missing link reproduces Network.send's
        # counted-loss semantics.
        network = self.network
        links = network._adjacency[node_id]
        # One immutable envelope shared by every direction: the network layer
        # never mutates messages, so per-direction copies are pure overhead.
        message = None
        for direction in directions:
            if direction == LOCAL or direction == exclude:
                continue
            if message is None:
                message = Message(
                    _EVENT, (event, route), event.event_id.source
                )
            link = links.get(direction)
            if link is not None:
                link.transmit(node_id, message)
            else:
                # Routing table points at a broken link: the frame is lost
                # on the dead wire (send + drop, exactly like Network.send).
                network.sent_tally[_EVENT] += 1
                network.dropped_tally[_EVENT] += 1

    def receive_recovered_event(self, event: Event) -> bool:
        """Process an event obtained through the recovery machinery.

        Recovered events are delivered locally and cached, but *not*
        forwarded on the tree: recovery is point-to-point and every
        dispatcher recovers on its own behalf.  Returns ``True`` if the
        event was new.
        """
        offset = event.row + self.seen_col
        if self.seen[offset] & self.seen_bit:
            return False
        self.seen[offset] |= self.seen_bit
        directions = self.table.matching_directions_for(
            event.content_id, event.patterns
        )
        if directions and directions[0] == LOCAL:
            if self.on_deliver is not None:
                self.on_deliver(self.node_id, event, True, self.sim._now)
            if self.observe_event is not None:
                self.observe_event(event, None)
            self.cache.insert(event)
        return True

    def ingest_disseminated_event(self, event: Event) -> bool:
        """Process an event that arrived via gossip-only dissemination.

        Like :meth:`receive_recovered_event` but following the hpcast
        model the comparator implements: the event is cached whether or
        not this dispatcher subscribes (everyone relays the epidemic).
        Returns ``True`` if the event was new.
        """
        if not self.receive_recovered_event(event):
            return False
        self.cache.insert(event)  # a no-op if cached as a subscriber
        return True

    # ------------------------------------------------------------------
    # Primitives offered to the recovery algorithms
    # ------------------------------------------------------------------
    def unreceived(self, events: Tuple[Event, ...]) -> Tuple[EventId, ...]:
        """The ids of the ``events`` never received here (push's digest
        check), read from each event's row of the received-id matrix."""
        seen = self.seen
        col = self.seen_col
        bit = self.seen_bit
        return tuple([
            event.event_id for event in events if not seen[event.row + col] & bit
        ])

    def gossip_targets(self, pattern: int, exclude: Optional[int]) -> list[int]:
        """Neighbors subscribed to ``pattern`` (candidates for gossip
        forwarding), excluding the previous hop."""
        return [
            neighbor
            for neighbor in self.table.neighbor_directions(pattern)
            if neighbor != exclude
        ]

    def _send_gossip(
        self, neighbor: int, payload: Any, size_bits: Optional[int] = None
    ) -> None:
        """Send one gossip message over the tree link to ``neighbor``.

        ``size_bits`` overrides the default wire size -- digests default
        to the event-message size (the paper's upper-bound assumption),
        but payloads carrying full events charge more.

        Exposed as the per-instance ``send_gossip`` binding (see
        ``__init__``): the class is slotted, so test harnesses interpose
        gossip spies by rebinding the attribute, not via ``__dict__``.
        """
        message = Message(MessageKind.GOSSIP, payload, self.node_id)
        if size_bits is not None:
            message.size_bits = size_bits
        self.network.send(self.node_id, neighbor, message)

    def _send_oob_request(self, to_node: int, payload: Any) -> None:
        """Out-of-band request (push receivers asking the gossiper).

        Exposed as the per-instance ``send_oob_request`` binding, like
        ``send_gossip``."""
        message = Message(MessageKind.OOB_REQUEST, payload, self.node_id)
        self.network.send_oob(self.node_id, to_node, message)

    def send_oob_event(self, to_node: int, event: Event) -> None:
        """Out-of-band retransmission of one cached event."""
        message = Message(MessageKind.OOB_EVENT, event, self.node_id)
        self.network.send_oob(self.node_id, to_node, message)

    # ------------------------------------------------------------------
    # Network-facing entry points.  ``receive``/``receive_oob`` are
    # instance attributes bound to the plain variants at construction and
    # swapped for the tracked variants by :meth:`attach_recovery` when a
    # peer-liveness tracker exists.
    # ------------------------------------------------------------------
    def _receive_plain(self, message: Message, from_node: int) -> None:
        kind = message.kind
        if kind is _EVENT:
            # The per-hop event path in one frame: dedup, match, delivery,
            # recovery observation, cache insert, route learning, forward.
            event, route = message.payload
            seen = self.seen
            offset = event.row + self.seen_col
            if seen[offset] & self.seen_bit:
                return  # duplicate (possible across reconfigurations)
            seen[offset] |= self.seen_bit
            # One memoized table query serves the local-match test and the
            # forwarding decision (LOCAL sorts first: it is -1, node ids
            # >= 0).  A memo miss costs the table one frame.
            directions = self._match_memo.get(event.content_id)
            if directions is None:
                directions = self.table.matching_directions_for(
                    event.content_id, event.patterns
                )
            if directions and directions[0] == LOCAL:
                on_deliver = self.on_deliver
                if on_deliver is not None:
                    on_deliver(self.node_id, event, False, self.sim._now)
                # Loss detection only runs on locally subscribed streams,
                # so non-subscribers make no observe call.
                observe = self.observe_event
                if observe is not None:
                    observe(event, route)
                self.cache.insert(event)
            if route is not None:
                # Routes are learned on every hop, subscriber or not.
                self.routes[event.event_id.source] = route
                route = route + (self.node_id,)
            self._forward_event(event, route, from_node, directions)
        elif kind is _GOSSIP:
            recovery = self.recovery
            if recovery is not None:
                recovery.handle_gossip(message.payload, from_node)
        elif kind is _SUBSCRIPTION:
            self._handle_subscription(message.payload, from_node)
        # CONTROL and unknown kinds are ignored by design.

    def _receive_tracked(self, message: Message, from_node: int) -> None:
        if message.kind is _GOSSIP:
            recovery = self.recovery
            if recovery is not None and recovery.peers is not None:
                # Inbound gossip proves the neighbor is alive (graceful
                # degradation; no-op dict miss when nothing is tracked).
                recovery.peers.note_response(from_node)
        self._receive_plain(message, from_node)

    def _receive_oob_plain(self, message: Message, from_node: int) -> None:
        kind = message.kind
        if kind is _OOB_REQUEST:
            recovery = self.recovery
            if recovery is not None:
                recovery.handle_oob_request(message.payload, from_node)
        elif kind is _OOB_EVENT:
            self.receive_recovered_event(message.payload)

    def _receive_oob_tracked(self, message: Message, from_node: int) -> None:
        recovery = self.recovery
        if recovery is not None and recovery.peers is not None:
            # Out-of-band traffic (requests and retransmissions) also proves
            # the sender is alive.
            recovery.peers.note_response(from_node)
        self._receive_oob_plain(message, from_node)

    def __repr__(self) -> str:  # pragma: no cover - debug aid
        return (
            f"<Dispatcher {self.node_id} local={self.table.local_patterns()} "
            f"cache={len(self.cache)}/{self.cache.capacity}>"
        )

"""Acknowledgment-based reliable delivery -- the centralized comparator.

The paper's Related Work (Section V) discusses the Gryphon guaranteed
delivery service [20]: *"an acknowledgment-based scheme that requires
stable storage only at the publisher"*, and argues it does not fit highly
dynamic scenarios because responsibility (and load) concentrates at the
publisher.  To make that comparison quantitative we implement an
*idealized* acknowledgment scheme:

* the publisher learns (from a globally informed resolver -- an
  idealization standing in for Gryphon's knowledge infrastructure) exactly
  which dispatchers should receive each event it publishes;
* every expected recipient returns an out-of-band ACK upon delivery;
* the publisher keeps unacknowledged events in stable storage (here: its
  cache plus a pending table) and retransmits out of band every
  ``gossip_interval`` until acknowledged or the retry budget is spent.

Being idealized, it is an *upper bound* for what acknowledgment schemes
achieve: delivery reaches ~100 %.  The interesting output -- shown by
``benchmarks/test_ablation_ack_baseline.py`` -- is the *load skew*: all
recovery work sits on publishers and the out-of-band channel, versus the
epidemic algorithms' "constant, equally distributed load".
"""

from __future__ import annotations

from typing import Any, Callable, Dict, Optional, Set

from repro.pubsub.dispatcher import Dispatcher
from repro.pubsub.event import Event, EventId
from repro.recovery.base import RecoveryAlgorithm, RecoveryConfig
from repro.sim.rng import RandomSource

__all__ = ["AckRecovery", "AckMessage"]

#: Maximum retransmission rounds per event before the publisher gives up.
DEFAULT_RETRY_LIMIT = 40


class AckMessage:
    """Out-of-band acknowledgment: ``acker`` received ``event_id``."""

    __slots__ = ("event_id", "acker")

    __slots__ = ("event_id", "acker")

    def __init__(self, event_id: EventId, acker: int) -> None:
        self.event_id = event_id
        self.acker = acker

    def __repr__(self) -> str:  # pragma: no cover - debug aid
        return f"<Ack {self.event_id!r} from {self.acker}>"


class _Pending:
    __slots__ = ("event", "missing", "retries_left")

    __slots__ = ("event", "missing", "retries_left")

    def __init__(self, event: Event, missing: Set[int], retries_left: int) -> None:
        self.event = event
        self.missing = missing
        self.retries_left = retries_left


class AckRecovery(RecoveryAlgorithm):
    """Idealized publisher-driven acknowledgment scheme (Gryphon-like)."""

    __slots__ = ("_pending", "recipient_resolver", "acks_sent",
                 "acks_received", "gave_up")

    name = "ack"

    def __init__(
        self,
        dispatcher: Dispatcher,
        rng: RandomSource,
        config: RecoveryConfig,
    ) -> None:
        super().__init__(dispatcher, rng, config)
        self._pending: Dict[EventId, _Pending] = {}
        #: global-knowledge resolver installed by the scenario builder:
        #: event -> set of dispatcher ids that should receive it.
        self.recipient_resolver: Optional[Callable[[Event], Set[int]]] = None
        self.acks_sent = 0
        self.acks_received = 0
        self.gave_up = 0

    # ------------------------------------------------------------------
    # Publisher side
    # ------------------------------------------------------------------
    def on_event_published(self, event: Event) -> None:
        if self.recipient_resolver is None:
            raise RuntimeError(
                "AckRecovery needs a recipient resolver; the scenario "
                "builder installs one (see Simulation.__init__)"
            )
        missing = set(self.recipient_resolver(event))
        missing.discard(self.node_id)  # local delivery is lossless
        if missing:
            self._pending[event.event_id] = _Pending(
                event, missing, DEFAULT_RETRY_LIMIT
            )

    def gossip_round(self) -> None:
        """Retransmit every still-unacknowledged event out of band."""
        if not self._pending:
            self.stats.rounds_skipped += 1
            return
        exhausted = []
        for event_id, pending in self._pending.items():
            if pending.retries_left <= 0:
                exhausted.append(event_id)
                continue
            pending.retries_left -= 1
            for node in sorted(pending.missing):
                self.dispatcher.send_oob_event(node, pending.event)
                self.stats.retransmissions_sent += 1
        for event_id in exhausted:
            del self._pending[event_id]
            self.gave_up += 1

    # ------------------------------------------------------------------
    # Subscriber side
    # ------------------------------------------------------------------
    def on_event_received(self, event: Event, route) -> None:
        # The dispatcher observes only events matching a local subscription.
        self.dispatcher.send_oob_request(
            event.source, AckMessage(event.event_id, self.node_id)
        )
        self.acks_sent += 1

    # ------------------------------------------------------------------
    # Message handling
    # ------------------------------------------------------------------
    def handle_oob_request(self, payload: Any, from_node: int) -> None:
        if not isinstance(payload, AckMessage):
            return
        self.acks_received += 1
        pending = self._pending.get(payload.event_id)
        if pending is None:
            return
        pending.missing.discard(payload.acker)
        if not pending.missing:
            del self._pending[payload.event_id]

    def handle_gossip(self, payload: Any, from_node: int) -> None:
        """The acknowledgment scheme sends no gossip; ignore strays."""

    @property
    def pending_events(self) -> int:
        return len(self._pending)

"""Duplex overlay links.

Each link models a 10 Mbit/s Ethernet-like channel (the paper's assumption)
between two dispatchers:

* **Serialization**: a message of ``size_bits`` occupies the sender side of
  the link for ``size_bits / bandwidth_bps`` seconds; messages queue FIFO
  per direction (each direction has its own transmitter).
* **Loss**: each transmission is dropped independently with probability
  ``error_rate`` (the paper's link error rate ε), or by a stateful
  :class:`~repro.faults.loss.LossModel` when one is installed.  A dropped
  message still occupies the transmitter -- the bits are sent, they just
  arrive corrupted and are discarded, as on a real lossy channel.
* **Propagation**: a fixed ``propagation_delay`` is added after
  serialization completes.
* **Outage**: a link can be taken ``down`` by the reconfiguration engine;
  transmissions attempted while down are lost (and counted as drops).

Zero-cost hooks
---------------
``_drop`` and ``_deliver`` are *instance attributes bound at setup time*,
not methods: the constructor picks the loss draw (none, Bernoulli, or loss
model) and the fast or crash-checked delivery variant once, so the single
``transmit`` body never branches on configuration that cannot change
mid-run (see docs/PERFORMANCE.md, "Setup-time method binding").  A
fault-free link therefore pays nothing for the fault machinery -- no
``loss_model is None`` test, no ``error_rate > 0`` test, no
down-destination lookup -- and a lossless link's draw consumes no
randomness.  The only mutation that can change the draw,
:meth:`set_error_rate`, rebinds it.
"""

from __future__ import annotations

import random
from typing import TYPE_CHECKING, Callable, Optional

from repro.network.message import Message

if TYPE_CHECKING:  # pragma: no cover - import cycle guard for typing only
    from repro.faults.loss import LossModel
    from repro.network.network import Network

__all__ = ["Link", "LinkStats"]


class LinkStats:
    """Per-link transmission counters (both directions pooled)."""

    __slots__ = ("sent", "delivered", "lost", "dropped_down", "busy_time")

    def __init__(self) -> None:
        self.sent = 0
        self.delivered = 0
        self.lost = 0
        self.dropped_down = 0
        self.busy_time = 0.0

    def utilization(self, elapsed: float) -> float:
        """Fraction of ``elapsed`` the link spent transmitting (one direction
        at full duty counts as 0.5 because the link is duplex)."""
        if elapsed <= 0.0:
            return 0.0
        return min(1.0, self.busy_time / (2.0 * elapsed))

    def __repr__(self) -> str:  # pragma: no cover - debug aid
        return (
            f"<LinkStats sent={self.sent} delivered={self.delivered} "
            f"lost={self.lost} down-drops={self.dropped_down}>"
        )


class Link:
    """A duplex link between two nodes of the overlay tree.

    Parameters
    ----------
    network:
        Owning network (provides the simulator and delivery hooks).
    node_a, node_b:
        Endpoint node ids.
    bandwidth_bps:
        Channel rate; default 10 Mbit/s.
    propagation_delay:
        One-way propagation latency in seconds.
    error_rate:
        Per-transmission Bernoulli loss probability (ε).
    rng:
        Random stream used for loss draws.
    loss_model:
        Optional stateful loss model (e.g. Gilbert--Elliott burst loss);
        when set, it replaces the inline Bernoulli ``error_rate`` draw.

    The loss draw ``_drop() -> bool`` and ``_deliver`` are bound
    per-instance in the constructor (see the module docstring).
    """

    __slots__ = (
        "network",
        "node_a",
        "node_b",
        "bandwidth_bps",
        "propagation_delay",
        "error_rate",
        "rng",
        "loss_model",
        "up",
        "stats",
        "_busy_until",
        "_peer",
        # Setup-time-bound hot-path callables (instance attributes so the
        # per-message path never branches on static configuration).
        "_drop",
        "_deliver",
    )

    def __init__(
        self,
        network: "Network",
        node_a: int,
        node_b: int,
        bandwidth_bps: float,
        propagation_delay: float,
        error_rate: float,
        rng: random.Random,
        loss_model: Optional["LossModel"] = None,
    ) -> None:
        if node_a == node_b:
            raise ValueError(f"self-link at node {node_a}")
        if not 0.0 <= error_rate <= 1.0:
            raise ValueError(f"error_rate must be in [0, 1], got {error_rate}")
        if bandwidth_bps <= 0:
            raise ValueError(f"bandwidth must be positive, got {bandwidth_bps}")
        self.network = network
        self.node_a = node_a
        self.node_b = node_b
        self.bandwidth_bps = bandwidth_bps
        self.propagation_delay = propagation_delay
        self.error_rate = error_rate
        self.rng = rng
        self.loss_model = loss_model
        self.up = True
        self.stats = LinkStats()
        # Per-direction transmitter availability, keyed by sender id.
        self._busy_until = {node_a: 0.0, node_b: 0.0}
        # Sender id -> opposite endpoint, precomputed for the hot path.
        self._peer = {node_a: node_b, node_b: node_a}
        self._deliver: Callable[[Message, int, int], None] = (
            self._deliver_checked if network.fault_hooks else self._deliver_fast
        )
        self._drop: Callable[[], bool]
        self._bind_drop()

    def _bind_drop(self) -> None:
        """Select the loss draw for the current loss configuration."""
        if self.loss_model is not None:
            self._drop = self._drop_model
        elif self.error_rate > 0.0:
            self._drop = self._drop_bernoulli
        else:
            self._drop = self._drop_never

    def set_error_rate(self, error_rate: float) -> None:
        """Change ε and rebind the loss draw.

        The loss decision is compiled into the bound ``_drop`` draw, so
        mutating ``error_rate`` directly would not take effect; this is
        the supported way to change it (tests use it to open and close loss
        windows).  Ignored for the loss decision while a ``loss_model`` is
        installed.
        """
        if not 0.0 <= error_rate <= 1.0:
            raise ValueError(f"error_rate must be in [0, 1], got {error_rate}")
        self.error_rate = error_rate
        self._bind_drop()

    # ------------------------------------------------------------------
    def other_end(self, node: int) -> int:
        """The id of the endpoint opposite to ``node``."""
        if node == self.node_a:
            return self.node_b
        if node == self.node_b:
            return self.node_a
        raise ValueError(f"node {node} is not an endpoint of {self!r}")

    def endpoints(self) -> tuple[int, int]:
        return (self.node_a, self.node_b)

    # ------------------------------------------------------------------
    def transmit(self, from_node: int, message: Message) -> bool:
        """Queue ``message`` on the sender's direction and schedule arrival.

        Returns ``True`` if the message was *enqueued for transmission*
        (lost or not), ``False`` if the link is down.  The caller is
        charged for the send in either case -- a dispatcher cannot know
        the link state before trying.
        """
        network = self.network
        observer = network.observer
        stats = self.stats
        kind = message.kind
        stats.sent += 1
        observer.count_send(kind, from_node)
        if not self.up:
            stats.dropped_down += 1
            observer.count_drop(kind)
            return False
        sim = network.sim
        serialization = message.size_bits / self.bandwidth_bps
        busy_until = self._busy_until
        start = busy_until[from_node]
        now = sim._now  # raw clock slot; the ``now`` property costs a call
        if now > start:
            start = now
        done = start + serialization
        busy_until[from_node] = done
        stats.busy_time += serialization
        if self._drop():
            stats.lost += 1
            observer.count_drop(kind)
            return True
        # Deliveries are never cancelled, so the handle-free fast path
        # avoids one object allocation per transmission.
        sim.schedule_call_at(
            done + self.propagation_delay,
            self._deliver,
            message,
            from_node,
            self._peer[from_node],
        )
        return True

    # ------------------------------------------------------------------
    # loss draws -- ``self._drop`` is bound to exactly one.
    # ------------------------------------------------------------------
    def _drop_never(self) -> bool:
        """ε = 0 and no loss model: nothing is lost, nothing is drawn."""
        return False

    def _drop_bernoulli(self) -> bool:
        """The paper's i.i.d. Bernoulli(ε) loss draw."""
        return self.rng.random() < self.error_rate

    def _drop_model(self) -> bool:
        """A stateful loss model's decision (burst loss injection)."""
        return self.loss_model.should_drop(self.rng)

    # ------------------------------------------------------------------
    # delivery variants -- ``self._deliver`` is bound to exactly one.
    # ------------------------------------------------------------------
    def _deliver_fast(self, message: Message, from_node: int, to_node: int) -> None:
        """Delivery without crash checks (no fault injection configured)."""
        # A link that went down while the message was in flight also loses
        # it: the physical channel is gone.  This is a *dynamic* protocol
        # condition (reconfiguration), not a configuration flag, so the test
        # stays even on the fast path.
        network = self.network
        if not self.up:
            self.stats.dropped_down += 1
            network.observer.count_drop(message.kind)
            return
        self.stats.delivered += 1
        # Network.deliver inlined (count + hand to the node): this runs once
        # per successful link transmission and the extra frame is measurable.
        network.observer.count_deliver(message.kind)
        network._nodes[to_node].receive(message, from_node)

    def _deliver_checked(
        self, message: Message, from_node: int, to_node: int
    ) -> None:
        """Delivery with crashed-destination accounting (fault hooks on)."""
        network = self.network
        if not self.up:
            self.stats.dropped_down += 1
            network.observer.count_drop(message.kind)
            return
        node = network._receivers.get(to_node)
        if node is None:
            # Destination crashed (or vanished) while the message was in
            # flight: counted drop, never a KeyError.
            network.observer.count_drop(message.kind)
            network.down_drops += 1
            return
        self.stats.delivered += 1
        network.observer.count_deliver(message.kind)
        node.receive(message, from_node)

    def set_up(self, up: bool) -> None:
        """Raise or lower the link (reconfiguration engine hook)."""
        self.up = up

    def __repr__(self) -> str:  # pragma: no cover - debug aid
        state = "up" if self.up else "down"
        return f"<Link {self.node_a}<->{self.node_b} {state}>"

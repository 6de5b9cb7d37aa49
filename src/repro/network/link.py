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

Setup-time loss draw
--------------------
``_drop`` is an *instance attribute bound at setup time*, not a method:
the constructor picks the loss draw (none, Bernoulli, or loss model)
once, so the single ``transmit`` body never branches on the loss
configuration and a lossless link's draw consumes no randomness (see
docs/PERFORMANCE.md, "Setup-time method binding").  The only mutation
that can change the draw, :meth:`set_error_rate`, rebinds it.  Delivery
has one body: its checks -- a link that went down, a destination that
crashed -- are on run-time data, not configuration.
"""

from __future__ import annotations

import random
from typing import TYPE_CHECKING, Callable, Optional

from repro.network.message import Message, MessageKind

if TYPE_CHECKING:  # pragma: no cover - import cycle guard for typing only
    from repro.faults.loss import LossModel
    from repro.network.network import Network

__all__ = ["Link"]

# Module global: one dict lookup on the per-message path.
_GOSSIP = MessageKind.GOSSIP


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

    The loss draw ``_drop() -> bool`` is bound per-instance in the
    constructor (see the module docstring).
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
        "_busy_until",
        "_peer",
        # Setup-time-bound loss draw (an instance attribute so the
        # per-message path never branches on the loss configuration).
        "_drop",
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
        # Per-direction transmitter availability, keyed by sender id.
        self._busy_until = {node_a: 0.0, node_b: 0.0}
        # Sender id -> opposite endpoint, precomputed for the hot path.
        self._peer = {node_a: node_b, node_b: node_a}
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
        kind = message.kind
        # Count as data: index the network's tallies, no call per message.
        network.sent_tally[kind] += 1
        if kind is _GOSSIP:
            network.gossip_by_node[from_node] += 1
        if not self.up:
            network.dropped_tally[kind] += 1
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
        if self._drop():
            network.dropped_tally[kind] += 1
            return True
        # Deliveries are never cancelled, so the handle-free fast path
        # avoids one object allocation per transmission, and scheduling the
        # plain function rather than a bound method avoids another.
        sim.schedule_call_at(
            done + self.propagation_delay,
            Link._deliver,
            self,
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
    def _deliver(self, message: Message, from_node: int, to_node: int) -> None:
        """Hand ``message`` to ``to_node`` at the end of its flight.

        A link that went down while the message was in flight loses it:
        the physical channel is gone.  A destination that crashed (or
        vanished) meanwhile is a counted drop, never a ``KeyError``.
        """
        network = self.network
        if not self.up:
            network.dropped_tally[message.kind] += 1
            return
        node = network._receivers.get(to_node)
        if node is None:
            network.dropped_tally[message.kind] += 1
            network.down_drops += 1
            return
        network.delivered_tally[message.kind] += 1
        node.receive(message, from_node)

    def set_up(self, up: bool) -> None:
        """Raise or lower the link (reconfiguration engine hook)."""
        self.up = up

    def __repr__(self) -> str:  # pragma: no cover - debug aid
        state = "up" if self.up else "down"
        return f"<Link {self.node_a}<->{self.node_b} {state}>"

"""The network: nodes, live links, and the out-of-band channel.

The :class:`Network` is the glue between the topology layer (which decides
*which* links exist) and the dispatchers (which decide *what* to send).  It
also hosts the out-of-band unicast channel used by the recovery algorithms
for requests and retransmissions: a direct, connectionless path between any
two dispatchers, independent of the tree, with its own latency and loss.

It is also the run's one traffic account.  Every counting path -- a
link's transmit and delivery, the out-of-band send and delivery, and a
send onto a missing link -- indexes the network's tallies
in place, with no call per message:

* ``sent_tally``, ``dropped_tally``, ``delivered_tally``: per
  :class:`~repro.network.message.MessageKind`;
* ``gossip_by_node``: gossip sends on the tree, per sending node;
* ``oob_by_node``: out-of-band sends (requests and retransmissions), per
  sending node.

:class:`~repro.metrics.counters.MessageCounters` reads them and applies
the paper's overhead definitions (Section IV-E).
"""

from __future__ import annotations

import random
from array import array
from dataclasses import dataclass, replace
from typing import (
    TYPE_CHECKING,
    Callable,
    Dict,
    Iterable,
    Iterator,
    Optional,
    Set,
    Tuple,
)

from repro.network.link import Link
from repro.network.message import Message, MessageKind
from repro.network.node import Node
from repro.sim.engine import Simulator

if TYPE_CHECKING:  # pragma: no cover - typing-only import, avoids a cycle
    from repro.faults.loss import LossModel

__all__ = ["Network", "NetworkConfig"]

_KIND_COUNT = max(MessageKind) + 1
# Module global: one dict lookup on the per-message paths.
_GOSSIP = MessageKind.GOSSIP


@dataclass(frozen=True, slots=True)
class NetworkConfig:
    """Physical parameters of the dispatching network.

    Defaults follow the paper: 10 Mbit/s links; the out-of-band channel is
    a direct UDP-like path (1 ms latency by default) whose reliability is
    configurable (the paper only requires it to exist, "not necessarily
    reliable").
    """

    bandwidth_bps: float = 10_000_000.0
    propagation_delay: float = 0.0001
    error_rate: float = 0.1
    oob_latency: float = 0.001
    oob_error_rate: float = 0.0


class Network:
    """Nodes plus links plus the out-of-band channel.

    Parameters
    ----------
    sim:
        The simulation engine.
    config:
        Physical parameters (bandwidth, delays, error rates).
    loss_rng:
        Random stream for link-loss and out-of-band-loss draws.
    loss_model_factory:
        Optional ``(node_a, node_b) -> LossModel`` called once per link;
        installs a stateful loss model (e.g. Gilbert--Elliott) in place of
        the inline Bernoulli ``error_rate`` draw.
    oob_loss_model:
        Optional shared loss model for the out-of-band channel, replacing
        the Bernoulli ``oob_error_rate`` draw.

    Delivery is crash-aware on every run: a message whose destination is
    down (see :meth:`set_node_down`) or unknown is a counted drop.
    """

    def __init__(
        self,
        sim: Simulator,
        config: NetworkConfig,
        loss_rng: random.Random,
        loss_model_factory: Optional[Callable[[int, int], "LossModel"]] = None,
        oob_loss_model: Optional["LossModel"] = None,
    ) -> None:
        self.sim = sim
        self.config = config
        self._loss_rng = loss_rng
        #: per-kind send, drop and delivery tallies, indexed by
        #: ``MessageKind`` (an IntEnum).
        self.sent_tally = [0] * _KIND_COUNT
        self.dropped_tally = [0] * _KIND_COUNT
        self.delivered_tally = [0] * _KIND_COUNT
        #: per-node send columns indexed by node id: gossip on the tree,
        #: and out-of-band requests plus retransmissions.  ``add_node``
        #: grows them by doubling, so entries past the highest node id are
        #: zero.  Flat ``array('q')``: 8 bytes per node, no per-count
        #: objects.
        self.gossip_by_node = array("q")
        self.oob_by_node = array("q")
        self._loss_model_factory = loss_model_factory
        self._oob_loss_model = oob_loss_model
        self._nodes: Dict[int, Node] = {}
        # Nodes currently able to receive: ``_nodes`` minus crashed nodes.
        # Delivery does a single ``.get`` here, so a down (or vanished)
        # destination costs nothing extra on the healthy path.
        self._receivers: Dict[int, Node] = {}
        #: Messages dropped because their destination was down or gone.
        self.down_drops = 0
        # adjacency: node id -> {neighbor id -> Link}
        self._adjacency: Dict[int, Dict[int, Link]] = {}
        self._links: Dict[Tuple[int, int], Link] = {}
        self._oob_drop: Callable[[], bool]
        self._bind_oob_drop()

    # ------------------------------------------------------------------
    # Node / link management
    # ------------------------------------------------------------------
    def add_node(self, node: Node) -> None:
        if node.node_id in self._nodes:
            raise ValueError(f"duplicate node id {node.node_id}")
        self._nodes[node.node_id] = node
        self._receivers[node.node_id] = node
        self._adjacency[node.node_id] = {}
        size = len(self.gossip_by_node)
        if node.node_id >= size:
            zeros = bytes(8 * (2 * node.node_id + 2 - size))
            self.gossip_by_node.frombytes(zeros)
            self.oob_by_node.frombytes(zeros)

    def node(self, node_id: int) -> Node:
        return self._nodes[node_id]

    def set_node_down(self, node_id: int, down: bool) -> None:
        """Crash or restart a node (fault-injector hook).

        A down node keeps its links and routing entries -- the rest of the
        tree still forwards toward it -- but every message addressed to it
        is discarded on arrival as a counted drop, like frames sent to a
        powered-off host.
        """
        if node_id not in self._nodes:
            raise KeyError(f"unknown node {node_id}")
        if down:
            self._receivers.pop(node_id, None)
        else:
            self._receivers[node_id] = self._nodes[node_id]

    def is_down(self, node_id: int) -> bool:
        return node_id in self._nodes and node_id not in self._receivers

    def down_nodes(self) -> Set[int]:
        """Ids of currently-crashed nodes (a new set; sorted iteration safe)."""
        return self._nodes.keys() - self._receivers.keys()

    def nodes(self) -> Iterator[Node]:
        return iter(self._nodes.values())

    def node_ids(self) -> Iterator[int]:
        return iter(self._nodes)

    @property
    def node_count(self) -> int:
        return len(self._nodes)

    @staticmethod
    def _key(a: int, b: int) -> Tuple[int, int]:
        return (a, b) if a < b else (b, a)

    def add_link(self, a: int, b: int) -> Link:
        """Create (and raise) a link between nodes ``a`` and ``b``."""
        if a not in self._nodes or b not in self._nodes:
            raise KeyError(f"both endpoints must exist: {a}, {b}")
        key = self._key(a, b)
        if key in self._links:
            raise ValueError(f"link {key} already exists")
        factory = self._loss_model_factory
        link = Link(
            self,
            a,
            b,
            bandwidth_bps=self.config.bandwidth_bps,
            propagation_delay=self.config.propagation_delay,
            error_rate=self.config.error_rate,
            rng=self._loss_rng,
            loss_model=factory(a, b) if factory is not None else None,
        )
        self._links[key] = link
        self._adjacency[a][b] = link
        self._adjacency[b][a] = link
        return link

    def remove_link(self, a: int, b: int) -> Link:
        """Tear down the link between ``a`` and ``b`` and return it.

        In-flight messages on the link are lost (the link marks itself down
        before removal so pending deliveries are discarded).
        """
        key = self._key(a, b)
        link = self._links.pop(key, None)
        if link is None:
            raise KeyError(f"no link between {a} and {b}")
        link.set_up(False)
        del self._adjacency[a][b]
        del self._adjacency[b][a]
        return link

    def has_link(self, a: int, b: int) -> bool:
        return self._key(a, b) in self._links

    def link(self, a: int, b: int) -> Link:
        return self._links[self._key(a, b)]

    def links(self) -> Iterable[Link]:
        return self._links.values()

    @property
    def link_count(self) -> int:
        return len(self._links)

    def neighbors(self, node_id: int) -> list[int]:
        """Current overlay neighbors of ``node_id`` (sorted for determinism)."""
        return sorted(self._adjacency[node_id])

    def degree(self, node_id: int) -> int:
        return len(self._adjacency[node_id])

    def edges(self) -> list[Tuple[int, int]]:
        """All live links as sorted (a, b) pairs; deterministic order."""
        return sorted(self._links)

    # ------------------------------------------------------------------
    # Transmission
    # ------------------------------------------------------------------
    def send(self, from_node: int, to_node: int, message: Message) -> bool:
        """Send over the overlay link between adjacent nodes.

        Returns ``False`` when there is no live link (e.g. it broke while
        the routing table still points at it) -- the message is silently
        lost, exactly like a frame sent onto a dead wire.
        """
        link = self._adjacency[from_node].get(to_node)
        if link is None:
            kind = message.kind
            self.sent_tally[kind] += 1
            if kind is _GOSSIP:
                self.gossip_by_node[from_node] += 1
            self.dropped_tally[kind] += 1
            return False
        return link.transmit(from_node, message)

    def set_oob_error_rate(self, rate: float) -> None:
        """Change the out-of-band Bernoulli loss rate mid-run.

        The loss decision is compiled into the bound ``_oob_drop`` draw, so
        replacing ``config`` directly would not take effect; this setter
        swaps the config *and* rebinds the draw.  Ignored for the loss
        decision while an out-of-band loss model is installed.
        """
        if not 0.0 <= rate <= 1.0:
            raise ValueError(f"oob_error_rate must be in [0, 1], got {rate}")
        self.config = replace(self.config, oob_error_rate=rate)
        self._bind_oob_drop()

    # ------------------------------------------------------------------
    # Out-of-band channel
    # ------------------------------------------------------------------
    def _bind_oob_drop(self) -> None:
        """Select the out-of-band loss draw for the current configuration."""
        if self._oob_loss_model is not None:
            self._oob_drop = self._oob_drop_model
        elif self.config.oob_error_rate > 0.0:
            self._oob_drop = self._oob_drop_bernoulli
        else:
            self._oob_drop = self._oob_drop_never

    def send_oob(self, from_node: int, to_node: int, message: Message) -> bool:
        """Send over the out-of-band unicast channel (direct, UDP-like).

        The channel is independent of the tree: constant latency, optional
        loss, no queueing (recovery traffic is small compared to the
        10 Mbit/s links, and the paper treats this path as out of band).
        Returns ``False`` for an unknown destination, ``True`` otherwise
        (lost or not).
        """
        kind = message.kind
        self.sent_tally[kind] += 1
        self.oob_by_node[from_node] += 1
        if to_node not in self._nodes:
            # Unknown destination (e.g. stale peer knowledge): counted drop,
            # never an exception -- UDP to a vanished host just disappears.
            self.dropped_tally[kind] += 1
            self.down_drops += 1
            return False
        if self._oob_drop():
            self.dropped_tally[kind] += 1
            return True
        self.sim.schedule_call(
            self.config.oob_latency, self._deliver_oob, message, from_node, to_node
        )
        return True

    # loss draws -- ``self._oob_drop`` is bound to exactly one.
    def _oob_drop_never(self) -> bool:
        """Lossless channel, no loss model: nothing is drawn."""
        return False

    def _oob_drop_bernoulli(self) -> bool:
        """i.i.d. Bernoulli(``oob_error_rate``) loss."""
        return self._loss_rng.random() < self.config.oob_error_rate

    def _oob_drop_model(self) -> bool:
        """A stateful loss model's decision (burst loss injection)."""
        return self._oob_loss_model.should_drop(self._loss_rng)

    def _deliver_oob(self, message: Message, from_node: int, to_node: int) -> None:
        node = self._receivers.get(to_node)
        if node is None:
            # Destination crashed while the message was in flight.
            self.dropped_tally[message.kind] += 1
            self.down_drops += 1
            return
        self.delivered_tally[message.kind] += 1
        node.receive_oob(message, from_node)

    def __repr__(self) -> str:  # pragma: no cover - debug aid
        return f"<Network nodes={len(self._nodes)} links={len(self._links)}>"

"""The network: nodes, live links, and the out-of-band channel.

The :class:`Network` is the glue between the topology layer (which decides
*which* links exist) and the dispatchers (which decide *what* to send).  It
also hosts the out-of-band unicast channel used by the recovery algorithms
for requests and retransmissions: a direct, connectionless path between any
two dispatchers, independent of the tree, with its own latency and loss.
"""

from __future__ import annotations

import random
from dataclasses import dataclass, replace
from typing import (
    TYPE_CHECKING,
    Callable,
    Dict,
    Iterable,
    Iterator,
    Optional,
    Protocol,
    Set,
    Tuple,
)

from repro.network.link import Link
from repro.network.message import Message, MessageKind
from repro.network.node import Node
from repro.sim.engine import Simulator

if TYPE_CHECKING:  # pragma: no cover - typing-only import, avoids a cycle
    from repro.faults.loss import LossModel

__all__ = ["Network", "NetworkConfig", "TrafficObserver"]


class TrafficObserver(Protocol):
    """Hook interface for message accounting (implemented by metrics)."""

    def count_send(self, kind: MessageKind, node_id: int) -> None: ...

    def count_drop(self, kind: MessageKind) -> None: ...

    def count_deliver(self, kind: MessageKind) -> None: ...


class _NullObserver:
    """Default observer: counts nothing."""

    def count_send(self, kind: MessageKind, node_id: int) -> None:
        pass

    def count_drop(self, kind: MessageKind) -> None:
        pass

    def count_deliver(self, kind: MessageKind) -> None:
        pass


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
    observer:
        Optional traffic observer for overhead accounting.
    loss_model_factory:
        Optional ``(node_a, node_b) -> LossModel`` called once per link;
        installs a stateful loss model (e.g. Gilbert--Elliott) in place of
        the inline Bernoulli ``error_rate`` draw.
    oob_loss_model:
        Optional shared loss model for the out-of-band channel, replacing
        the Bernoulli ``oob_error_rate`` draw.
    fault_hooks:
        ``True`` when a fault injector may crash nodes mid-run.  The flag
        selects, once at construction, the crash-aware variants of the
        per-message delivery paths (``Link._deliver``, ``send_oob``, the
        out-of-band delivery callback); with the default ``False`` those
        paths carry zero fault-accounting work and :meth:`set_node_down`
        refuses to run (see docs/PERFORMANCE.md, "Setup-time method
        binding").
    """

    def __init__(
        self,
        sim: Simulator,
        config: NetworkConfig,
        loss_rng: random.Random,
        observer: Optional[TrafficObserver] = None,
        loss_model_factory: Optional[Callable[[int, int], "LossModel"]] = None,
        oob_loss_model: Optional["LossModel"] = None,
        fault_hooks: bool = False,
    ) -> None:
        self.sim = sim
        self.config = config
        self._loss_rng = loss_rng
        self.observer: TrafficObserver = observer or _NullObserver()
        self._loss_model_factory = loss_model_factory
        self._oob_loss_model = oob_loss_model
        self.fault_hooks = fault_hooks
        self._nodes: Dict[int, Node] = {}
        # Nodes currently able to receive: ``_nodes`` minus crashed nodes.
        # Crash-aware delivery paths do a single ``.get`` here, so a down
        # (or vanished) destination costs nothing extra on the healthy path.
        self._receivers: Dict[int, Node] = {}
        self._down: Set[int] = set()
        #: Messages dropped because their destination was down or gone.
        self.down_drops = 0
        # adjacency: node id -> {neighbor id -> Link}
        self._adjacency: Dict[int, Dict[int, Link]] = {}
        self._links: Dict[Tuple[int, int], Link] = {}
        # Setup-time binding of the out-of-band hot path: pick the variant
        # matching the static configuration so the per-message path never
        # re-tests it.  A stateful oob loss model implies the checked path
        # (loss models are a fault-injection feature).
        self._deliver_oob: Callable[[Message, int, int], None]
        self.send_oob: Callable[[int, int, Message], bool]
        if fault_hooks or oob_loss_model is not None:
            self._deliver_oob = self._deliver_oob_checked
            self.send_oob = self._send_oob_checked
        else:
            self._deliver_oob = self._deliver_oob_fast
            if config.oob_error_rate > 0.0:
                self.send_oob = self._send_oob_bernoulli
            else:
                self.send_oob = self._send_oob_lossless

    # ------------------------------------------------------------------
    # Node / link management
    # ------------------------------------------------------------------
    def add_node(self, node: Node) -> None:
        if node.node_id in self._nodes:
            raise ValueError(f"duplicate node id {node.node_id}")
        self._nodes[node.node_id] = node
        self._receivers[node.node_id] = node
        self._adjacency[node.node_id] = {}

    def node(self, node_id: int) -> Node:
        return self._nodes[node_id]

    def set_node_down(self, node_id: int, down: bool) -> None:
        """Crash or restart a node (fault-injector hook).

        A down node keeps its links and routing entries -- the rest of the
        tree still forwards toward it -- but every message addressed to it
        is discarded on arrival as a counted drop, like frames sent to a
        powered-off host.
        """
        if not self.fault_hooks:
            raise RuntimeError(
                "set_node_down requires fault hooks: construct the Network "
                "with fault_hooks=True (the scenario builder does this "
                "automatically when a FaultPlan is configured)"
            )
        if node_id not in self._nodes:
            raise KeyError(f"unknown node {node_id}")
        if down:
            self._down.add(node_id)
            self._receivers.pop(node_id, None)
        else:
            self._down.discard(node_id)
            self._receivers[node_id] = self._nodes[node_id]

    def is_down(self, node_id: int) -> bool:
        return node_id in self._down

    def down_nodes(self) -> Set[int]:
        """Ids of currently-crashed nodes (copy; sorted iteration safe)."""
        return set(self._down)

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
            self.observer.count_send(message.kind, from_node)
            self.observer.count_drop(message.kind)
            return False
        return link.transmit(from_node, message)

    def set_oob_error_rate(self, rate: float) -> None:
        """Change the out-of-band Bernoulli loss rate mid-run.

        The loss decision is compiled into the bound ``send_oob`` variant
        (see ``__init__``), so replacing ``config`` directly would not take
        effect on the fast path; this setter swaps the config *and* rebinds
        the variant.  While the checked variant is bound (fault hooks or a
        stateful oob loss model) no rebinding is needed -- it reads the
        config dynamically.
        """
        if not 0.0 <= rate <= 1.0:
            raise ValueError(f"oob_error_rate must be in [0, 1], got {rate}")
        self.config = replace(self.config, oob_error_rate=rate)
        if self.fault_hooks or self._oob_loss_model is not None:
            return
        self.send_oob = (
            self._send_oob_bernoulli if rate > 0.0 else self._send_oob_lossless
        )

    # ------------------------------------------------------------------
    # Out-of-band channel -- ``self.send_oob`` is bound at construction to
    # exactly one of the variants below (see __init__); they share the
    # docstring semantics of the checked variant and differ only in which
    # static checks they can skip.
    # ------------------------------------------------------------------
    def _send_oob_checked(self, from_node: int, to_node: int, message: Message) -> bool:
        """Send over the out-of-band unicast channel (direct, UDP-like).

        The channel is independent of the tree: constant latency, optional
        Bernoulli loss, no queueing (recovery traffic is small compared to
        the 10 Mbit/s links, and the paper treats this path as out of band).
        """
        self.observer.count_send(message.kind, from_node)
        if to_node not in self._nodes:
            # Unknown destination (e.g. stale peer knowledge): counted drop,
            # never an exception -- UDP to a vanished host just disappears.
            self.observer.count_drop(message.kind)
            self.down_drops += 1
            return False
        oob_model = self._oob_loss_model
        if oob_model is not None:
            if oob_model.should_drop(self._loss_rng):
                self.observer.count_drop(message.kind)
                return True
        elif (
            self.config.oob_error_rate > 0.0
            and self._loss_rng.random() < self.config.oob_error_rate
        ):
            self.observer.count_drop(message.kind)
            return True
        self.sim.schedule_call(
            self.config.oob_latency, self._deliver_oob, message, from_node, to_node
        )
        return True

    def _send_oob_bernoulli(
        self, from_node: int, to_node: int, message: Message
    ) -> bool:
        """Out-of-band send, fault-free network, Bernoulli oob loss.

        Without fault injection nodes never leave ``_nodes``, and recovery
        peers are drawn from the membership, so the unknown-destination
        check is dead code here.
        """
        self.observer.count_send(message.kind, from_node)
        if self._loss_rng.random() < self.config.oob_error_rate:
            self.observer.count_drop(message.kind)
            return True
        self.sim.schedule_call(
            self.config.oob_latency, self._deliver_oob, message, from_node, to_node
        )
        return True

    def _send_oob_lossless(
        self, from_node: int, to_node: int, message: Message
    ) -> bool:
        """Out-of-band send, fault-free network, lossless oob channel."""
        self.observer.count_send(message.kind, from_node)
        self.sim.schedule_call(
            self.config.oob_latency, self._deliver_oob, message, from_node, to_node
        )
        return True

    # ------------------------------------------------------------------
    # Delivery plumbing (called by links)
    # ------------------------------------------------------------------
    def deliver(self, message: Message, from_node: int, to_node: int) -> None:
        """Crash-aware delivery entry point (kept for API compatibility;
        links bind the matching variant directly)."""
        node = self._receivers.get(to_node)
        if node is None:
            # Destination crashed (or was removed) while the message was in
            # flight: counted drop, never a KeyError.
            self.observer.count_drop(message.kind)
            self.down_drops += 1
            return
        self.observer.count_deliver(message.kind)
        node.receive(message, from_node)

    def _deliver_oob_checked(
        self, message: Message, from_node: int, to_node: int
    ) -> None:
        node = self._receivers.get(to_node)
        if node is None:
            self.observer.count_drop(message.kind)
            self.down_drops += 1
            return
        self.observer.count_deliver(message.kind)
        node.receive_oob(message, from_node)

    def _deliver_oob_fast(
        self, message: Message, from_node: int, to_node: int
    ) -> None:
        self.observer.count_deliver(message.kind)
        self._nodes[to_node].receive_oob(message, from_node)

    # Counting hooks used by Link ---------------------------------------
    def count_send(self, kind: MessageKind, node_id: int) -> None:
        self.observer.count_send(kind, node_id)

    def count_drop(self, kind: MessageKind) -> None:
        self.observer.count_drop(kind)

    def __repr__(self) -> str:  # pragma: no cover - debug aid
        return f"<Network nodes={len(self._nodes)} links={len(self._links)}>"

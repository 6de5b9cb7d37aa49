"""System assembly: tree + network + dispatchers + ground truth.

:class:`PubSubSystem` owns the whole dispatching network and provides:

* construction from a :class:`~repro.topology.tree.Tree`;
* the received-id store every dispatcher deduplicates against (one
  :class:`~repro.pubsub.event.EventIdRegistry` bit matrix for the whole
  system);
* the user-facing subscribe / publish API;
* the *route oracle*: direct computation of every subscription table from
  the global subscription assignment and the current live overlay.  The
  oracle produces exactly the tables the subscription-forwarding protocol
  converges to (the test suite verifies this equivalence) and is what the
  reconfiguration engine invokes when a repair completes -- modelling the
  completion of the route-reconstruction protocol of [7];
* ground-truth queries used by metrics ("which dispatchers *should* receive
  this event in a fully reliable system?").
"""

from __future__ import annotations

from typing import Dict, FrozenSet, Iterable, List, Mapping, Optional, Set, Tuple

from repro.network.network import Network
from repro.pubsub.dispatcher import DeliveryCallback, Dispatcher
from repro.pubsub.event import Event, EventIdRegistry
from repro.pubsub.pattern import LOCAL, PatternSpace
from repro.sim.engine import Simulator
from repro.topology.tree import Tree

__all__ = ["PubSubSystem"]


class PubSubSystem:
    """The dispatching network as a single object.

    Parameters
    ----------
    sim, network:
        Engine and (empty) network; the constructor populates nodes/links.
    tree:
        Initial overlay tree.
    pattern_space:
        The universe of Π patterns.
    buffer_size:
        β, each dispatcher's event-cache capacity.
    record_routes:
        Enable route accumulation on event messages (publisher-based pull).
    on_deliver:
        Delivery callback propagated to every dispatcher.
    """

    def __init__(
        self,
        sim: Simulator,
        network: Network,
        tree: Tree,
        pattern_space: PatternSpace,
        buffer_size: int,
        record_routes: bool = False,
        on_deliver: Optional[DeliveryCallback] = None,
        cache_policy: str = "fifo",
        cache_rng_factory=None,
    ) -> None:
        self.sim = sim
        self.network = network
        self.pattern_space = pattern_space
        self.dispatchers: List[Dispatcher] = []
        #: The received-id matrix: one row per published event, one bit
        #: column per node.
        self.event_registry = EventIdRegistry(tree.node_count)
        for node_id in range(tree.node_count):
            dispatcher = Dispatcher(
                node_id,
                sim,
                network,
                pattern_space,
                buffer_size,
                self.event_registry,
                record_routes=record_routes,
                on_deliver=on_deliver,
                cache_policy=cache_policy,
                cache_rng=cache_rng_factory(node_id) if cache_rng_factory else None,
            )
            network.add_node(dispatcher)
            self.dispatchers.append(dispatcher)
        for a, b in tree.edges:
            network.add_link(a, b)
        #: ground-truth subscription assignment: node -> set of patterns.
        self._subscriptions: Dict[int, Set[int]] = {
            node_id: set() for node_id in range(tree.node_count)
        }
        #: per-pattern subscriber sets (derived, kept in sync).
        self._subscribers: Dict[int, Set[int]] = {}

    # ------------------------------------------------------------------
    @property
    def node_count(self) -> int:
        return len(self.dispatchers)

    def dispatcher(self, node_id: int) -> Dispatcher:
        return self.dispatchers[node_id]

    def set_delivery_callback(self, on_deliver: DeliveryCallback) -> None:
        for dispatcher in self.dispatchers:
            dispatcher.on_deliver = on_deliver

    # ------------------------------------------------------------------
    # Subscribing
    # ------------------------------------------------------------------
    def subscribe(self, node_id: int, pattern: int, via_protocol: bool = True) -> None:
        """Subscribe ``node_id`` to ``pattern``.

        With ``via_protocol`` the subscription propagates with real
        messages; otherwise only the ground truth is updated and the caller
        must invoke :meth:`rebuild_routes` (the oracle) afterwards --
        scenario builders use the oracle to start runs from the
        stable-subscription state the paper evaluates.
        """
        self.pattern_space.validate(pattern)
        self._subscriptions[node_id].add(pattern)
        self._subscribers.setdefault(pattern, set()).add(node_id)
        if via_protocol:
            self.dispatchers[node_id].subscribe(pattern)

    def unsubscribe(self, node_id: int, pattern: int, via_protocol: bool = True) -> None:
        self._subscriptions[node_id].discard(pattern)
        subscribers = self._subscribers.get(pattern)
        if subscribers is not None:
            subscribers.discard(node_id)
            if not subscribers:
                del self._subscribers[pattern]
        if via_protocol:
            self.dispatchers[node_id].unsubscribe(pattern)

    def apply_subscriptions(self, assignment: Mapping[int, Iterable[int]]) -> None:
        """Install a whole subscription assignment via the oracle."""
        for node_id, patterns in assignment.items():
            for pattern in patterns:
                self.subscribe(node_id, pattern, via_protocol=False)
        self.rebuild_routes()

    def subscriptions_of(self, node_id: int) -> FrozenSet[int]:
        return frozenset(self._subscriptions[node_id])

    def subscribers_of(self, pattern: int) -> FrozenSet[int]:
        return frozenset(self._subscribers.get(pattern, frozenset()))

    def subscribed_patterns(self) -> List[int]:
        """Patterns with at least one subscriber, sorted."""
        return sorted(self._subscribers)

    # ------------------------------------------------------------------
    # Ground truth for metrics
    # ------------------------------------------------------------------
    def expected_recipients(self, event: Event) -> Set[int]:
        """Dispatchers that receive ``event`` in a fully reliable system:
        every subscriber of any pattern the event contains (including the
        publisher itself when it subscribes -- local delivery is lossless).
        """
        recipients: Set[int] = set()
        for pattern in event.patterns:
            subscribers = self._subscribers.get(pattern)
            if subscribers:
                recipients |= subscribers
        return recipients

    # ------------------------------------------------------------------
    # The route oracle
    # ------------------------------------------------------------------
    def rebuild_routes(self) -> None:
        """Recompute every subscription table from ground truth.

        A node ``x`` forwards ``p``-matching events toward neighbor ``n``
        iff the side of ``x``'s live overlay component reached through
        ``n`` holds a subscriber of ``p``.  All patterns are handled at
        once as Python-int bitsets (bit ``p`` = pattern ``p``): one BFS per
        component fixes the parents, a post-order pass ORs each subtree's
        subscriptions into ``below``, and a pre-order pass pushes the
        complement down into ``above`` -- prefix/suffix ORs over the
        siblings keep hubs linear.  O(N) bitset operations, plus
        O(table entries) to install the tables with
        :meth:`SubscriptionTable.load`.

        Forwarded marks are reset to the protocol-equivalent state (x has
        forwarded p toward m iff x's side of the x--m edge holds a
        subscriber), so later protocol (un)subscriptions compose correctly.
        """
        n = self.node_count
        neighbors = self.network.neighbors
        local = [0] * n
        for node_id, patterns in self._subscriptions.items():
            for pattern in patterns:
                local[node_id] |= 1 << pattern
        parent = [-1] * n  # -1: not reached yet; a BFS root is its own parent
        children: List[List[int]] = [[] for _ in range(n)]
        below = local[:]
        above = [0] * n
        for root in range(n):
            if parent[root] >= 0:
                continue
            parent[root] = root
            order = [root]
            for node in order:  # grows while iterated: the BFS queue
                kids = children[node]
                for neighbor in neighbors(node):
                    if parent[neighbor] < 0:
                        parent[neighbor] = node
                        kids.append(neighbor)
                        order.append(neighbor)
            for node in reversed(order[1:]):
                below[parent[node]] |= below[node]
            for node in order:
                kids = children[node]
                suffix = [0] * (len(kids) + 1)
                for i in range(len(kids) - 1, -1, -1):
                    suffix[i] = suffix[i + 1] | below[kids[i]]
                prefix = above[node] | local[node]
                for i, child in enumerate(kids):
                    above[child] = prefix | suffix[i + 1]
                    prefix |= below[child]
        for node_id, dispatcher in enumerate(self.dispatchers):
            routes = {LOCAL: local[node_id]}
            forwarded: Dict[int, int] = {}
            up = parent[node_id]
            if up != node_id:
                routes[up] = above[node_id]
                forwarded[up] = below[node_id]
            for child in children[node_id]:
                routes[child] = below[child]
                forwarded[child] = above[child]
            dispatcher.table.load(routes, forwarded)

    # ------------------------------------------------------------------
    # Publishing
    # ------------------------------------------------------------------
    def publish(self, node_id: int, patterns: Tuple[int, ...]) -> Event:
        """Publish an event with content ``patterns`` from ``node_id``."""
        return self.dispatchers[node_id].publish(patterns)

    def __repr__(self) -> str:  # pragma: no cover - debug aid
        return (
            f"<PubSubSystem n={self.node_count} "
            f"patterns={len(self._subscribers)} links={self.network.link_count}>"
        )

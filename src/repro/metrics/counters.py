"""Message-traffic accounting.

:class:`MessageCounters` implements the network's ``TrafficObserver`` hook:
every transmission attempt, drop, and delivery is tallied per
:class:`~repro.network.message.MessageKind`, and gossip/event sends are
additionally tallied per dispatcher (the paper reports "the number of
gossip messages sent by each dispatcher").

What counts as what (Section IV-E):

* *event messages*: every per-link transmission of a published event;
* *gossip messages*: every per-link transmission of a gossip digest --
  every hop counts, exactly like event messages, so the two are comparable;
* the out-of-band request/retransmission traffic is tallied separately and
  reported alongside (the paper's overhead figures consider gossip
  messages; we expose the full breakdown).
"""

from __future__ import annotations

from array import array
from typing import Dict, List

from repro.network.message import MessageKind

__all__ = ["MessageCounters"]

_KIND_COUNT = max(MessageKind) + 1


class MessageCounters:
    """Per-kind and per-node traffic counters.

    The per-node tallies are flat ``array('q')`` columns indexed by node
    id: 8 bytes per node per column and zero per-count object churn, so
    10⁵ mostly-idle nodes cost under 3 MB total.  Query methods
    materialize Python lists lazily, only when a report asks.

    Parameters
    ----------
    node_count:
        Number of dispatchers (for the per-node tallies).
    """

    __slots__ = ("node_count", "_sent", "_dropped", "_delivered",
                 "_gossip_by_node", "_events_by_node", "_oob_by_node",
                 "_gossip_kind", "_event_kind", "_oob_kinds")

    def __init__(self, node_count: int) -> None:
        if node_count <= 0:
            raise ValueError(f"node_count must be positive, got {node_count}")
        self.node_count = node_count
        self._sent = [0] * _KIND_COUNT
        self._dropped = [0] * _KIND_COUNT
        self._delivered = [0] * _KIND_COUNT
        # bytes(8 * n) zero-fills without an intermediate Python list.
        self._gossip_by_node = array("q", bytes(8 * node_count))
        self._events_by_node = array("q", bytes(8 * node_count))
        self._oob_by_node = array("q", bytes(8 * node_count))
        self._gossip_kind = int(MessageKind.GOSSIP)
        self._event_kind = int(MessageKind.EVENT)
        self._oob_kinds = (int(MessageKind.OOB_REQUEST), int(MessageKind.OOB_EVENT))

    # ------------------------------------------------------------------
    # TrafficObserver interface (hot path)
    # ------------------------------------------------------------------
    def count_send(self, kind: MessageKind, node_id: int) -> None:
        # MessageKind is an IntEnum: it indexes lists and compares against
        # ints directly, so no int() round-trip is needed on the hot path.
        self._sent[kind] += 1
        if kind == self._gossip_kind:
            self._gossip_by_node[node_id] += 1
        elif kind == self._event_kind:
            self._events_by_node[node_id] += 1
        elif kind in self._oob_kinds:
            self._oob_by_node[node_id] += 1

    def count_drop(self, kind: MessageKind) -> None:
        self._dropped[kind] += 1

    def count_deliver(self, kind: MessageKind) -> None:
        self._delivered[kind] += 1

    # ------------------------------------------------------------------
    # Queries
    # ------------------------------------------------------------------
    def sent(self, kind: MessageKind) -> int:
        return self._sent[int(kind)]

    def dropped(self, kind: MessageKind) -> int:
        return self._dropped[int(kind)]

    def delivered(self, kind: MessageKind) -> int:
        return self._delivered[int(kind)]

    @property
    def event_messages(self) -> int:
        """Total per-link event transmissions in the system."""
        return self._sent[self._event_kind]

    @property
    def gossip_messages(self) -> int:
        """Total per-link gossip transmissions in the system."""
        return self._sent[self._gossip_kind]

    @property
    def oob_messages(self) -> int:
        """Out-of-band traffic: requests plus retransmissions."""
        return (
            self._sent[int(MessageKind.OOB_REQUEST)]
            + self._sent[int(MessageKind.OOB_EVENT)]
        )

    def gossip_per_dispatcher(self) -> float:
        """Mean gossip messages sent per dispatcher (Fig 9, left charts)."""
        return self.gossip_messages / self.node_count

    def gossip_event_ratio(self) -> float:
        """Gossip / event message ratio (Fig 9, right charts).

        Returns 0.0 when no event traffic exists (degenerate scenarios).
        """
        if self.event_messages == 0:
            return 0.0
        return self.gossip_messages / self.event_messages

    def gossip_by_node(self) -> List[int]:
        return list(self._gossip_by_node)

    def events_by_node(self) -> List[int]:
        return list(self._events_by_node)

    def oob_by_node(self) -> List[int]:
        return list(self._oob_by_node)

    def recovery_load_skew(self) -> float:
        """max/mean of per-node recovery traffic (gossip + out-of-band).

        The epidemic algorithms' selling point is a flat profile (skew
        near 1); publisher-centric acknowledgment schemes concentrate
        load (skew ≫ 1).  Returns 0.0 when there is no recovery traffic.
        """
        total = 0
        peak = 0
        for g, o in zip(self._gossip_by_node, self._oob_by_node):
            load = g + o
            total += load
            if load > peak:
                peak = load
        if total == 0:
            return 0.0
        return peak / (total / self.node_count)

    def loss_rate(self, kind: MessageKind) -> float:
        """Observed per-transmission drop fraction for a message kind."""
        sent = self._sent[int(kind)]
        if sent == 0:
            return 0.0
        return self._dropped[int(kind)] / sent

    def snapshot(self) -> Dict[str, int]:
        """Flat dictionary of all counters (for reports and tests)."""
        result: Dict[str, int] = {}
        for kind in MessageKind:
            result[f"sent_{kind.name.lower()}"] = self._sent[int(kind)]
            result[f"dropped_{kind.name.lower()}"] = self._dropped[int(kind)]
            result[f"delivered_{kind.name.lower()}"] = self._delivered[int(kind)]
        return result

    def __repr__(self) -> str:  # pragma: no cover - debug aid
        return (
            f"<MessageCounters events={self.event_messages} "
            f"gossip={self.gossip_messages} oob={self.oob_messages}>"
        )

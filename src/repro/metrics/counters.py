"""Message-traffic figures (Section IV-E).

The network keeps the run's one traffic account (see
:mod:`repro.network.network`): per-kind send, drop and delivery tallies,
and the gossip and out-of-band sends of each node.  :class:`MessageCounters`
reads that account and applies the paper's definitions:

* *event messages*: every per-link transmission of a published event;
* *gossip messages*: every per-link transmission of a gossip digest --
  every hop counts, exactly like event messages, so the two are comparable;
* the out-of-band request/retransmission traffic is reported alongside
  (the paper's overhead figures consider gossip messages; we expose the
  full breakdown).
"""

from __future__ import annotations

from operator import add
from typing import Dict, List, Mapping

from repro.network.message import MessageKind
from repro.network.network import Network

__all__ = ["MessageCounters", "conservation_violations"]


class MessageCounters:
    """The overhead figures of one network's traffic account.

    Parameters
    ----------
    network:
        The network whose tallies are read; it must hold its dispatchers
        (the per-dispatcher figures divide by their number).
    """

    __slots__ = ("network",)

    def __init__(self, network: Network) -> None:
        if network.node_count <= 0:
            raise ValueError("a network without nodes has no per-dispatcher figures")
        self.network = network

    @property
    def oob_messages(self) -> int:
        """Out-of-band traffic: requests plus retransmissions."""
        sent = self.network.sent_tally
        return sent[MessageKind.OOB_REQUEST] + sent[MessageKind.OOB_EVENT]

    def gossip_per_dispatcher(self) -> float:
        """Mean gossip messages sent per dispatcher (Fig 9, left charts)."""
        network = self.network
        return network.sent_tally[MessageKind.GOSSIP] / network.node_count

    def gossip_event_ratio(self) -> float:
        """Gossip / event message ratio (Fig 9, right charts).

        Returns 0.0 when no event traffic exists (degenerate scenarios).
        """
        sent = self.network.sent_tally
        if sent[MessageKind.EVENT] == 0:
            return 0.0
        return sent[MessageKind.GOSSIP] / sent[MessageKind.EVENT]

    def recovery_load_skew(self) -> float:
        """max/mean of per-node recovery traffic (gossip + out-of-band).

        The epidemic algorithms' selling point is a flat profile (skew
        near 1); publisher-centric acknowledgment schemes concentrate
        load (skew ≫ 1).  Returns 0.0 when there is no recovery traffic.
        """
        network = self.network
        loads = list(map(add, network.gossip_by_node, network.oob_by_node))
        total = sum(loads)
        if total == 0:
            return 0.0
        return max(loads) / (total / network.node_count)

    def snapshot(self) -> Dict[str, int]:
        """Flat dictionary of the per-kind tallies (for reports and tests)."""
        network = self.network
        result: Dict[str, int] = {}
        for kind in MessageKind:
            name = kind.name.lower()
            result[f"sent_{name}"] = network.sent_tally[kind]
            result[f"dropped_{name}"] = network.dropped_tally[kind]
            result[f"delivered_{name}"] = network.delivered_tally[kind]
        return result


def conservation_violations(messages: Mapping[str, int]) -> List[str]:
    """Per-kind conservation breaches in a ``RunResult.messages`` snapshot.

    Each counted send ends at most once, as a delivery or as a drop (a
    message still in flight at the horizon is neither), so every kind must
    satisfy ``delivered + dropped <= sent``.  Returns one line per kind
    that does not; an empty list is the only correct answer.
    """
    found = []
    for kind in MessageKind:
        name = kind.name.lower()
        sent = messages[f"sent_{name}"]
        settled = messages[f"delivered_{name}"] + messages[f"dropped_{name}"]
        if settled > sent:
            found.append(f"{name}: delivered + dropped = {settled} > sent = {sent}")
    return found

"""Gossip message payloads (digests).

Each recovery algorithm labels its gossip messages differently:

* push uses *positive* digests: "here is what I have" (the cached events
  matching a pattern; a receiver reads only each one's id and received-id
  row, and asks for the missing ones out of band);
* the pull family uses *negative* digests: "here is what I know I lost"
  (loss-detection triples ``(source, pattern, pattern_seq)``).

Payloads are immutable; forwarding creates a new payload with the remaining
entries (pull digests shrink as dispatchers short-circuit requests they can
satisfy from their cache).
"""

from __future__ import annotations

from typing import Tuple

from repro.pubsub.event import Event

__all__ = [
    "LossEntryTuple",
    "PushGossip",
    "SubscriberPullGossip",
    "PublisherPullGossip",
    "RandomPullGossip",
    "RandomPushGossip",
]

#: A negative-digest entry: (source, pattern, per-(source, pattern) seq).
LossEntryTuple = Tuple[int, int, int]


class PushGossip:
    """Positive digest: the cached events matching ``pattern``.

    Routed along the dispatching tree toward subscribers of ``pattern``,
    like an event matching ``pattern`` (with per-neighbor probability
    ``P_forward``).
    """

    __slots__ = ("gossiper", "pattern", "events")

    def __init__(
        self, gossiper: int, pattern: int, events: Tuple[Event, ...]
    ) -> None:
        self.gossiper = gossiper
        self.pattern = pattern
        self.events = events

    def __repr__(self) -> str:  # pragma: no cover - debug aid
        return (
            f"<PushGossip from={self.gossiper} p={self.pattern} "
            f"|digest|={len(self.events)}>"
        )


class SubscriberPullGossip:
    """Negative digest steered toward subscribers of ``pattern``."""

    __slots__ = ("gossiper", "pattern", "entries")

    def __init__(
        self, gossiper: int, pattern: int, entries: Tuple[LossEntryTuple, ...]
    ) -> None:
        self.gossiper = gossiper
        self.pattern = pattern
        self.entries = entries

    def replace_entries(
        self, entries: Tuple[LossEntryTuple, ...]
    ) -> "SubscriberPullGossip":
        return SubscriberPullGossip(self.gossiper, self.pattern, entries)

    def __repr__(self) -> str:  # pragma: no cover - debug aid
        return (
            f"<SubscriberPullGossip from={self.gossiper} p={self.pattern} "
            f"|lost|={len(self.entries)}>"
        )


class PublisherPullGossip:
    """Negative digest steered hop-by-hop back toward ``source``.

    ``remaining_route`` is the tail of the recorded route still to travel:
    the next hop is ``remaining_route[0]``; the last element is the source
    itself.
    """

    __slots__ = ("gossiper", "source", "remaining_route", "entries")

    def __init__(
        self,
        gossiper: int,
        source: int,
        remaining_route: Tuple[int, ...],
        entries: Tuple[LossEntryTuple, ...],
    ) -> None:
        self.gossiper = gossiper
        self.source = source
        self.remaining_route = remaining_route
        self.entries = entries

    def advance(
        self, entries: Tuple[LossEntryTuple, ...]
    ) -> "PublisherPullGossip":
        """Payload for the next hop: strip the hop just taken."""
        return PublisherPullGossip(
            self.gossiper, self.source, self.remaining_route[1:], entries
        )

    def __repr__(self) -> str:  # pragma: no cover - debug aid
        return (
            f"<PublisherPullGossip from={self.gossiper} src={self.source} "
            f"hops-left={len(self.remaining_route)} |lost|={len(self.entries)}>"
        )


class RandomPullGossip:
    """Negative digest with entirely random routing and a hop budget."""

    __slots__ = ("gossiper", "entries", "hops_left")

    def __init__(
        self, gossiper: int, entries: Tuple[LossEntryTuple, ...], hops_left: int
    ) -> None:
        self.gossiper = gossiper
        self.entries = entries
        self.hops_left = hops_left

    def next_hop(self, entries: Tuple[LossEntryTuple, ...]) -> "RandomPullGossip":
        return RandomPullGossip(self.gossiper, entries, self.hops_left - 1)

    def __repr__(self) -> str:  # pragma: no cover - debug aid
        return (
            f"<RandomPullGossip from={self.gossiper} "
            f"|lost|={len(self.entries)} ttl={self.hops_left}>"
        )


class RandomPushGossip:
    """Positive digest with entirely random routing and a hop budget."""

    __slots__ = ("gossiper", "pattern", "events", "hops_left")

    def __init__(
        self,
        gossiper: int,
        pattern: int,
        events: Tuple[Event, ...],
        hops_left: int,
    ) -> None:
        self.gossiper = gossiper
        self.pattern = pattern
        self.events = events
        self.hops_left = hops_left

    def next_hop(self) -> "RandomPushGossip":
        return RandomPushGossip(
            self.gossiper, self.pattern, self.events, self.hops_left - 1
        )

    def __repr__(self) -> str:  # pragma: no cover - debug aid
        return (
            f"<RandomPushGossip from={self.gossiper} p={self.pattern} "
            f"|digest|={len(self.events)} ttl={self.hops_left}>"
        )

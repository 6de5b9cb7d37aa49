"""Events and event identifiers.

The identification scheme is the one Section III-B requires for pull-based
loss detection: *"The event identifier in this scheme contains the event
source, information about all the patterns matched by the event and, for
each pattern, a sequence number incremented at the source each time an event
is published for that pattern."*

Concretely an :class:`Event` carries:

* :class:`EventId` ``(source, seq)`` -- globally unique (footnote 3: source
  id plus a per-source monotonically increasing counter);
* ``patterns`` -- the content: the tuple of pattern numbers it contains;
* ``pattern_seqs`` -- for every contained pattern ``p``, the per-(source, p)
  sequence number assigned at publish time.

Events are immutable once published; the mutable *route* accumulated for
publisher-based pull travels in the event *message*, not in the event
(a single event object is shared by every copy in flight).
"""

from __future__ import annotations

from collections import namedtuple
from typing import Dict, Iterator, List, Optional, Tuple

__all__ = ["EventId", "Event", "EventIdRegistry", "ReceivedLog"]


class EventId(namedtuple("EventId", "source seq")):
    """Globally unique event identity: (source dispatcher, per-source seq).

    A tuple subclass: ids are hashed millions of times per run, and
    ``tuple.__hash__`` runs in C while equalling the ``hash((source,
    seq))`` ids have always had, so every set and dict keeps its iteration
    order (int-tuple hashes are also stable across processes).
    """

    __slots__ = ()

    __hash__ = tuple.__hash__

    def __eq__(self, other: object) -> bool:
        # Never equal to a plain tuple.  Dict and set probes settle on
        # identity first, and all copies of an event share the id
        # ``publish`` made, so this runs only for ids rebuilt elsewhere.
        return isinstance(other, EventId) and tuple.__eq__(self, other)

    def __ne__(self, other: object) -> bool:
        return not self.__eq__(other)

    def as_tuple(self) -> Tuple[int, int]:
        return (self.source, self.seq)

    def __repr__(self) -> str:
        return f"EventId({self.source}, {self.seq})"


class Event:
    """A published event.

    Attributes
    ----------
    event_id:
        The :class:`EventId`.
    patterns:
        Sorted tuple of pattern numbers the event contains (its content).
    pattern_seqs:
        ``{pattern: sequence number}`` assigned at the source, one entry per
        contained pattern -- the loss-detection tags of Section III-B.
    publish_time:
        Simulation time of the publish operation (used by metrics and for
        cache-persistence analysis).
    content_id:
        Interned content identity assigned by
        :meth:`repro.pubsub.pattern.PatternSpace.intern_content` at publish
        time, or ``-1`` for events constructed outside a pattern space
        (tests, ad-hoc tooling).  When present, matching paths memoize on
        this int instead of the pattern tuple.
    """

    __slots__ = ("event_id", "patterns", "pattern_seqs", "publish_time",
                 "content_id")

    def __init__(
        self,
        event_id: EventId,
        patterns: Tuple[int, ...],
        pattern_seqs: Dict[int, int],
        publish_time: float,
        content_id: int = -1,
    ) -> None:
        if not patterns:
            raise ValueError("an event must contain at least one pattern")
        if set(pattern_seqs) != set(patterns):
            raise ValueError(
                "pattern_seqs must tag exactly the contained patterns: "
                f"{sorted(pattern_seqs)} vs {sorted(patterns)}"
            )
        self.event_id = event_id
        self.patterns = patterns
        self.pattern_seqs = pattern_seqs
        self.publish_time = publish_time
        self.content_id = content_id

    @property
    def source(self) -> int:
        return self.event_id.source

    def matches(self, pattern: int) -> bool:
        """Content-based match against a single subscription pattern."""
        return pattern in self.patterns

    def matches_any(self, patterns) -> bool:
        """True if the event matches at least one of ``patterns``."""
        for pattern in self.patterns:
            if pattern in patterns:
                return True
        return False

    def __eq__(self, other: object) -> bool:
        return isinstance(other, Event) and self.event_id == other.event_id

    def __hash__(self) -> int:
        return hash(self.event_id)

    def __repr__(self) -> str:  # pragma: no cover - debug aid
        return (
            f"<Event {self.event_id!r} patterns={self.patterns} "
            f"t={self.publish_time:.4f}>"
        )


class EventIdRegistry:
    """Run-global dense index over :class:`EventId`\\ s.

    One registry per simulation (owned by :class:`~repro.pubsub.system.
    PubSubSystem`), interning each event identity to the next integer the
    first time any node logs it.  The dense index is what lets the
    per-node :class:`ReceivedLog`\\ s store membership as bitmaps instead
    of hash sets: at 10^5 nodes the received-id sets were the single
    largest per-node structure (~2.5 KB/node for a few hundred events),
    where a shared registry plus per-node bitmaps cost one dict for the
    whole process and ~events/8 bytes per node.
    """

    __slots__ = ("_index", "_ids")

    def __init__(self) -> None:
        self._index: Dict[EventId, int] = {}
        self._ids: List[EventId] = []

    def intern(self, event_id: EventId) -> int:
        """Dense index of ``event_id``, assigning one on first sight."""
        idx = self._index.get(event_id)
        if idx is None:
            idx = len(self._ids)
            self._index[event_id] = idx
            self._ids.append(event_id)
        return idx

    def index_of(self, event_id: EventId) -> Optional[int]:
        """Dense index of ``event_id``, or ``None`` if never interned."""
        return self._index.get(event_id)

    def event_id(self, index: int) -> EventId:
        return self._ids[index]

    def __len__(self) -> int:
        return len(self._ids)


class ReceivedLog:
    """Set-like per-node log of every event id ever received.

    Drop-in replacement for the ``Set[EventId]`` the dispatchers used for
    duplicate suppression and push-digest checks: supports ``in``,
    ``add``, ``discard``, iteration and ``len``, but stores membership as
    a bitmap over the shared :class:`EventIdRegistry`'s dense index.
    Iteration yields ids in dense-index (global first-receipt) order --
    deterministic, unlike a hash set, and nothing in the simulation
    iterates a received log anyway (membership and insertion only).
    """

    __slots__ = ("_registry", "_bits")

    def __init__(self, registry: Optional[EventIdRegistry] = None) -> None:
        # Standalone construction (unit tests, ad-hoc tooling) gets a
        # private registry; simulations share one per pub-sub system.
        self._registry = registry if registry is not None else EventIdRegistry()
        self._bits = bytearray()

    def add(self, event_id: EventId) -> None:
        idx = self._registry.intern(event_id)
        byte = idx >> 3
        bits = self._bits
        if byte >= len(bits):
            bits.extend(bytes(byte + 1 - len(bits)))
        bits[byte] |= 1 << (idx & 7)

    def discard(self, event_id: EventId) -> None:
        idx = self._registry.index_of(event_id)
        if idx is None:
            return
        byte = idx >> 3
        if byte < len(self._bits):
            self._bits[byte] &= 0xFF ^ (1 << (idx & 7))

    def __contains__(self, event_id: object) -> bool:
        if not isinstance(event_id, EventId):
            return False
        idx = self._registry.index_of(event_id)
        if idx is None:
            return False
        byte = idx >> 3
        bits = self._bits
        return byte < len(bits) and bits[byte] >> (idx & 7) & 1 == 1

    def __iter__(self) -> Iterator[EventId]:
        ids = self._registry._ids
        for byte, value in enumerate(self._bits):
            if not value:
                continue
            base = byte << 3
            for bit in range(8):
                if value >> bit & 1:
                    yield ids[base + bit]

    def __len__(self) -> int:
        return sum(value.bit_count() for value in self._bits)

    def __bool__(self) -> bool:
        return any(self._bits)

    def __repr__(self) -> str:  # pragma: no cover - debug aid
        return f"<ReceivedLog {len(self)} ids>"

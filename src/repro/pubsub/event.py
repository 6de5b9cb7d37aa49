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
from typing import Dict, List, Optional, Tuple

__all__ = ["EventId", "Event", "EventIdRegistry"]


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
    row:
        Byte offset of the event's row in the system's received-id
        matrix (:class:`EventIdRegistry`), assigned at publish time, or
        ``None`` for events constructed outside a system.  Receiving
        such an event raises ``TypeError``: it must never read another
        event's row.
    """

    __slots__ = ("event_id", "patterns", "pattern_seqs", "publish_time",
                 "content_id", "row")

    def __init__(
        self,
        event_id: EventId,
        patterns: Tuple[int, ...],
        pattern_seqs: Dict[int, int],
        publish_time: float,
        content_id: int = -1,
        row: Optional[int] = None,
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
        self.row = row

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
    """The system's received-id store: one bit per (event, node).

    Every dispatcher drops the events it has already received, and push
    recovery checks each advertised id against "the events it has ever
    received".  Both read one ``bytearray`` matrix, :attr:`seen`, owned
    by the :class:`~repro.pubsub.system.PubSubSystem`: one row of
    ``stride = ceil(N/8)`` bytes per published event, appended (zeroed)
    by :meth:`intern` at publish time.  Node ``i`` owns byte column
    ``i >> 3`` and bit ``1 << (i & 7)`` of every row, so a node's dedup
    test is ``seen[event.row + column] & bit`` -- no hash probe and no
    method call -- and the whole system pays N/8 bytes per event, where
    a hash set per node pays ~60 bytes per received id.  :attr:`rows`
    maps each id to its row offset for the one reader that holds bare
    ids, push's digest check.

    :attr:`published` is the system's one loss-key index: a pattern's
    sequence number at its source is the length of the source's id list
    for it after the append, so the pull loss key ``(source, pattern,
    seq)`` names ``published[source][pattern][seq - 1]`` for the whole
    run (a restart wipes a node's cache, never its log).
    """

    __slots__ = ("stride", "rows", "seen", "published")

    def __init__(self, node_count: int) -> None:
        self.stride = (node_count + 7) >> 3
        #: event id -> byte offset of its row in :attr:`seen`.
        self.rows: Dict[EventId, int] = {}
        self.seen = bytearray()
        #: source -> {pattern: ids it published on it, oldest first}.
        self.published: Dict[int, Dict[int, List[EventId]]] = {}

    def intern(self, event_id: EventId) -> int:
        """Append a zeroed row for the newly published ``event_id`` and
        return its offset."""
        row = len(self.seen)
        self.rows[event_id] = row
        self.seen += bytes(self.stride)
        return row

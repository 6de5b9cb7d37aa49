"""Per-dispatcher subscription tables.

A subscription table maps each pattern to the set of *directions* events
matching it must be forwarded to.  A direction is either a neighbor node id
(the subscription arrived from that neighbor, i.e. a subscriber lives in the
subtree behind it) or the :data:`~repro.pubsub.pattern.LOCAL` sentinel (one
of this dispatcher's own clients subscribed).

The table also remembers, per pattern, the directions a subscription has
already been forwarded to, implementing the paper's optimization:
*"avoiding subscription forwarding of the same event pattern in the same
direction"*.

Compact representation
----------------------
Directions are stored as *bitmasks* over a small per-table direction
registry (a node has at most ``max_degree`` neighbors plus LOCAL), not as
one ``set`` object per pattern.  The masks live in two flat lists indexed
by the interned pattern id, one int per pattern of the universe (Π).  On
the paper's trees a mask is a small int; a scale-free hub with more
directions simply gets wider ints, so there is one layout at every size
(see docs/PERFORMANCE.md, "Compact state & scaling").  All query methods
return deterministic (sorted) collections.
"""

from __future__ import annotations

import sys
from array import array
from typing import Dict, Iterable, Iterator, List, Mapping, Set, Tuple

from repro.pubsub.pattern import LOCAL

__all__ = ["SubscriptionTable"]

#: Memo entries are dropped wholesale past this size -- a safety valve for
#: adversarial workloads; realistic pattern universes stay far below it.
_MATCH_CACHE_LIMIT = 1 << 16

#: ``format(bits, "b")`` digits -> 0/1 bytes (see ``_transpose``).
_BIT_BYTES = bytes.maketrans(b"01", b"\x00\x01")


class SubscriptionTable:
    """Routing state of one dispatcher.

    The structure is a direction *bitmask* per pattern: bit ``i`` set means
    events matching the pattern are forwarded toward ``_dir_ids[i]``.  All
    query methods return deterministic (sorted) collections so that
    simulations are reproducible regardless of hash randomization.

    Parameters
    ----------
    n_patterns:
        Size of the pattern universe (Π).  Patterns are ids in
        ``[0, n_patterns)``; ``_masks`` and ``_fwd_masks`` hold one int
        mask per pattern.

    Matching memo
    -------------
    Event contents repeat heavily within a run (a handful of patterns,
    drawn over and over), while subscription tables mutate rarely (never,
    in the paper's stable-subscription regime).  The per-event routing
    queries -- :meth:`matching_directions_sorted` and
    :meth:`matches_locally` -- are therefore memoized on the event's
    pattern tuple (or its interned content id, see
    :meth:`matching_directions_for`); *any* mutation of the table
    invalidates the whole memo (see :meth:`_invalidate`).
    """

    __slots__ = ("_size", "_dir_ids", "_dir_bits", "_masks", "_fwd_masks",
                 "_known", "_match_cache", "_mask_intern")

    def __init__(self, n_patterns: int) -> None:
        if n_patterns < 0:
            raise ValueError(f"n_patterns must be >= 0, got {n_patterns}")
        self._size = n_patterns
        #: direction registry: bit index -> direction id, and its inverse.
        #: Only :meth:`load` rebuilds it; otherwise it only grows, so a
        #: decoded mask never changes meaning.
        self._dir_ids: List[int] = []
        self._dir_bits: Dict[int, int] = {}
        self._masks: List[int] = [0] * n_patterns
        self._fwd_masks: List[int] = [0] * n_patterns
        #: number of patterns with a nonzero direction mask (kept
        #: incrementally so ``len(table)`` stays O(1)).
        self._known = 0
        #: content key (pattern tuple or interned content id) -> sorted
        #: direction tuple (LOCAL first if present, since LOCAL is -1 and
        #: node ids are >= 0).  Cleared in place, never rebound: the
        #: owning dispatcher probes this dict directly on every hop.
        self._match_cache: Dict[object, Tuple[int, ...]] = {}
        #: direction-mask -> decoded tuple intern pool.  Many memo entries
        #: decode to the same direction set (a table with d live directions
        #: has at most 2^(d+1) distinct tuples, while the memo holds one
        #: entry per distinct event content), so sharing one tuple per mask
        #: cuts the memo's value storage by the repetition factor.
        self._mask_intern: Dict[int, Tuple[int, ...]] = {}

    # ------------------------------------------------------------------
    # Direction registry
    # ------------------------------------------------------------------
    def _register_direction(self, direction: int) -> int:
        """Bit value for ``direction``, registering it on first use."""
        bit = self._dir_bits.get(direction)
        if bit is None:
            bit = self._dir_bits[direction] = len(self._dir_ids)
            self._dir_ids.append(direction)
        return 1 << bit

    def _decode(self, mask: int) -> List[int]:
        """Sorted direction ids of one mask."""
        dir_ids = self._dir_ids
        result = []
        while mask:
            low = mask & -mask
            result.append(dir_ids[low.bit_length() - 1])
            mask ^= low
        result.sort()
        return result

    def _mask_of(self, pattern: int) -> int:
        return self._masks[pattern] if 0 <= pattern < self._size else 0

    def _fwd_mask_of(self, pattern: int) -> int:
        return self._fwd_masks[pattern] if 0 <= pattern < self._size else 0

    # ------------------------------------------------------------------
    # Mutation
    # ------------------------------------------------------------------
    def add(self, pattern: int, direction: int) -> bool:
        """Record that ``direction`` wants events matching ``pattern``.

        Returns ``True`` if the pattern was previously unknown to this
        table (i.e. this is the first direction for it) -- the caller uses
        this to decide whether to propagate the subscription further.
        """
        if not 0 <= pattern < self._size:
            raise ValueError(
                f"pattern {pattern} outside the universe [0, {self._size})"
            )
        self._invalidate()
        bit_value = self._register_direction(direction)
        mask = self._masks[pattern]
        self._masks[pattern] = mask | bit_value
        if mask == 0:
            self._known += 1
            return True
        return False

    def remove(self, pattern: int, direction: int) -> None:
        """Forget one direction; drops the pattern entirely when empty.

        Forwarded marks are *kept*: they record what we told neighbors,
        which stays true until an explicit unsubscription is sent
        (``unmark_forwarded``) -- dropping them here would leave neighbors
        believing we still want the pattern.
        """
        mask = self._mask_of(pattern)
        if mask == 0:
            return
        self._invalidate()
        bit = self._dir_bits.get(direction)
        if bit is None or not mask >> bit & 1:
            return
        mask &= ~(1 << bit)
        self._masks[pattern] = mask
        if mask == 0:
            self._known -= 1

    def load(self, routes: Mapping[int, int], forwarded: Mapping[int, int]) -> None:
        """Replace the whole table in one step (the route oracle's install).

        ``routes`` and ``forwarded`` map a direction to a pattern *bitset*
        (bit ``p`` = pattern ``p``): the patterns routed toward it, and
        those whose subscription was forwarded to it.  The registry is
        rebuilt from the directions with a nonempty set, in sorted order.
        """
        self._invalidate()
        used = {d for d, bits in routes.items() if bits}
        used.update(d for d, bits in forwarded.items() if bits)
        known = sent = 0
        for bits in routes.values():
            known |= bits
        for bits in forwarded.values():
            sent |= bits
        width = (known | sent).bit_length()
        if width > self._size:
            raise ValueError(
                f"pattern {width - 1} outside the universe [0, {self._size})"
            )
        self._dir_ids = sorted(used)
        self._dir_bits = {d: i for i, d in enumerate(self._dir_ids)}
        self._masks = self._transpose(routes)
        self._fwd_masks = self._transpose(forwarded)
        self._known = known.bit_count()

    def _transpose(self, sets: Mapping[int, int]) -> List[int]:
        """Pattern-indexed direction masks of a direction -> bitset map.

        Done a byte lane at a time with int and bytes operations, not a
        Python step per entry: each bitset is spelled as one 0/1 byte per
        pattern, shifted to its direction's bit in the lane and ORed in;
        lane ``j`` then fills byte ``j`` of every ``stride``-byte mask.
        Masks of at most 64 directions are read back in one C call; wider
        hubs take one ``int.from_bytes`` per pattern.
        """
        size = self._size
        stride = max(8, (len(self._dir_ids) + 7) // 8)
        lanes = [0] * stride
        spec = f"0{size}b"
        for direction, bits in sets.items():
            if bits:
                bit = self._dir_bits[direction]
                spelled = format(bits, spec).encode().translate(_BIT_BYTES)
                lanes[bit >> 3] |= int.from_bytes(spelled, "big") << (bit & 7)
        buf = bytearray(stride * size)
        for lane, value in enumerate(lanes):
            if value:
                buf[lane::stride] = value.to_bytes(size, "little")
        if stride == 8:
            column = array("Q", buf)
            if sys.byteorder == "big":
                column.byteswap()
            return column.tolist()
        return [int.from_bytes(buf[p * stride:(p + 1) * stride], "little")
                for p in range(size)]

    # ------------------------------------------------------------------
    # Forwarding dedup (the paper's optimization)
    # ------------------------------------------------------------------
    def mark_forwarded(self, pattern: int, direction: int) -> bool:
        """Record that the subscription for ``pattern`` was propagated to
        ``direction``.  Returns ``False`` if it already had been (the caller
        must then *not* forward again)."""
        bit_value = self._register_direction(direction)
        mask = self._fwd_mask_of(pattern)
        if mask & bit_value:
            return False
        self._fwd_masks[pattern] = mask | bit_value
        return True

    def unmark_forwarded(self, pattern: int, direction: int) -> None:
        """Forget that ``pattern`` was propagated to ``direction`` (after an
        unsubscription), so a future re-subscription propagates again."""
        bit = self._dir_bits.get(direction)
        if bit is None:
            return
        mask = self._fwd_mask_of(pattern)
        if mask >> bit & 1:
            self._fwd_masks[pattern] = mask & ~(1 << bit)

    def was_forwarded(self, pattern: int, direction: int) -> bool:
        bit = self._dir_bits.get(direction)
        return bit is not None and bool(self._fwd_mask_of(pattern) >> bit & 1)

    # ------------------------------------------------------------------
    # Queries
    # ------------------------------------------------------------------
    def directions(self, pattern: int) -> List[int]:
        """Sorted directions subscribed to ``pattern`` (may include LOCAL)."""
        return self._decode(self._mask_of(pattern))

    def neighbor_directions(self, pattern: int) -> List[int]:
        """Sorted *neighbor* directions for ``pattern`` (LOCAL excluded)."""
        mask = self._mask_of(pattern)
        local_bit = self._dir_bits.get(LOCAL)
        if local_bit is not None:
            mask &= ~(1 << local_bit)
        return self._decode(mask)

    def has_pattern(self, pattern: int) -> bool:
        return self._mask_of(pattern) != 0

    def is_local(self, pattern: int) -> bool:
        """True iff this dispatcher itself subscribes to ``pattern``."""
        local_bit = self._dir_bits.get(LOCAL)
        return local_bit is not None and bool(
            self._mask_of(pattern) >> local_bit & 1
        )

    def patterns(self) -> List[int]:
        """All patterns known to the table (own + forwarded), sorted.

        This is the pool the *push* algorithm draws from ("p is selected by
        considering the whole subscription table").
        """
        return [pattern for pattern, mask in enumerate(self._masks) if mask]

    def local_patterns(self) -> List[int]:
        """Patterns subscribed locally, sorted.

        This is the pool the *subscriber-based pull* draws from ("chooses a
        pattern p among the ones associated to subscriptions issued
        locally").
        """
        local_bit = self._dir_bits.get(LOCAL)
        if local_bit is None:
            return []
        return [
            pattern
            for pattern, mask in enumerate(self._masks)
            if mask >> local_bit & 1
        ]

    def _invalidate(self) -> None:
        """Drop the matching memo; called on every routing-mask mutation.

        The mask-intern pool goes with it: decoded tuples are a function
        of the direction registry, which :meth:`load` rewrites.
        """
        if self._match_cache:
            self._match_cache.clear()
        if self._mask_intern:
            self._mask_intern.clear()

    def matching_directions(self, patterns: Iterable[int]) -> Set[int]:
        """Union of directions over the given event content.

        This is the reverse-path routing decision for an event: one event
        may match several subscriptions, laid down on the same tree, so the
        forwarding set is the union (each direction receives one copy).
        """
        return set(self.matching_directions_sorted(patterns))

    def matching_directions_sorted(self, patterns: Iterable[int]) -> Tuple[int, ...]:
        """Sorted direction tuple for one event content (memoized).

        The hot-path variant of :meth:`matching_directions`: the dispatcher
        forwards in this exact order, so handing out a pre-sorted tuple
        kills the per-forward ``sorted()``.  With LOCAL = -1 and node ids
        >= 0, LOCAL -- when present -- is always the first element.
        """
        key = patterns if type(patterns) is tuple else tuple(patterns)
        return self.matching_directions_for(-1, key)

    def matching_directions_for(
        self, content_id: int, patterns: Tuple[int, ...]
    ) -> Tuple[int, ...]:
        """Sorted direction tuple for one event content (memoized).

        The memo key is the content's interned id (see
        :meth:`repro.pubsub.pattern.PatternSpace.intern_content`) -- a small
        int, hashed in a few ns -- or the pattern tuple itself when
        ``content_id`` is negative (uninterned content).  Ints and tuples
        never collide as dict keys, so both keying schemes share one memo.
        The dispatcher's receive probes the memo by content id itself and
        calls this only on a miss, so a miss costs this one frame.
        """
        key = content_id if content_id >= 0 else patterns
        cache = self._match_cache
        cached = cache.get(key)
        if cached is not None:
            return cached
        mask = 0
        masks = self._masks
        size = self._size
        for pattern in patterns:
            if 0 <= pattern < size:
                mask |= masks[pattern]
        value = self._mask_intern.get(mask)
        if value is None:
            value = self._mask_intern[mask] = tuple(self._decode(mask))
        if len(cache) >= _MATCH_CACHE_LIMIT:
            cache.clear()
        cache[key] = value
        return value

    def matches_locally(self, patterns: Iterable[int]) -> bool:
        """True iff any of the event's patterns is locally subscribed."""
        matching = self.matching_directions_sorted(patterns)
        return bool(matching) and matching[0] == LOCAL

    def __len__(self) -> int:
        return self._known

    def __iter__(self) -> Iterator[Tuple[int, List[int]]]:
        for pattern in self.patterns():
            yield pattern, self.directions(pattern)

    def __repr__(self) -> str:  # pragma: no cover - debug aid
        return f"<SubscriptionTable patterns={self._known}>"

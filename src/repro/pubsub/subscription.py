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
one ``set`` object per pattern.  With the pattern universe size passed in
(``n_patterns``), the per-pattern masks live in two flat ``array('Q')``
columns indexed by the interned pattern id -- ~1 KB per node at Π = 70
where the set-of-sets layout cost ~37 KB (see docs/PERFORMANCE.md,
"Compact state & scaling").  Without the size hint the masks fall back to a
dict keyed by pattern, preserving the open-universe API for tests and
interactive use.  All query methods return the same deterministic (sorted)
collections in either mode.
"""

from __future__ import annotations

import sys
from array import array
from typing import Dict, Iterable, Iterator, List, Mapping, Optional, Set, Tuple, Union

from repro.pubsub.pattern import LOCAL

__all__ = ["SubscriptionTable"]

#: Memo entries are dropped wholesale past this size -- a safety valve for
#: adversarial workloads; realistic pattern universes stay far below it.
_MATCH_CACHE_LIMIT = 1 << 16

#: Dense masks are 64-bit array slots; a table referencing more than 64
#: distinct directions over its lifetime first compacts the registry
#: (dropping directions no mask still uses) before giving up.
_DENSE_MASK_BITS = 64

_Masks = Union[Dict[int, int], array]

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
        Size of the pattern universe (Π).  When given, masks are stored in
        flat ``array('Q')`` columns indexed by pattern id (the compact
        per-node layout); when ``None`` they live in a dict keyed by
        pattern (open universe, test-friendly).

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

    __slots__ = ("_size", "_dense", "_dir_ids", "_dir_bits", "_masks",
                 "_fwd_masks", "_known", "_match_cache", "_mask_intern")

    def __init__(self, n_patterns: Optional[int] = None) -> None:
        if n_patterns is not None and n_patterns < 0:
            raise ValueError(f"n_patterns must be >= 0, got {n_patterns}")
        self._size = n_patterns
        self._dense = n_patterns is not None
        #: direction registry: bit index -> direction id, and its inverse.
        self._dir_ids: List[int] = []
        self._dir_bits: Dict[int, int] = {}
        self._masks: _Masks
        self._fwd_masks: _Masks
        if self._dense:
            self._masks = array("Q", bytes(8 * n_patterns))
            self._fwd_masks = array("Q", bytes(8 * n_patterns))
        else:
            self._masks = {}
            self._fwd_masks = {}
        #: number of patterns with a nonzero direction mask (kept
        #: incrementally so ``len(table)`` stays O(1) in dense mode).
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
        """Bit value for ``direction``, registering it on first use.

        Registration invalidates the matching memo (the registry is memo
        backing state); repeated registrations are pure lookups and happen
        on the callers' fast paths via ``_dir_bits.get``.
        """
        self._invalidate()
        bits = self._dir_bits
        bit = bits.get(direction)
        if bit is None:
            if self._dense and len(self._dir_ids) >= _DENSE_MASK_BITS:
                self._compact_registry()
                bits = self._dir_bits  # compaction rebinds the registry
                bit = bits.get(direction)
                if bit is not None:
                    return 1 << bit
            bit = len(self._dir_ids)
            if self._dense and bit >= _DENSE_MASK_BITS:
                # A genuine hub: more than 64 live directions (scale-free
                # overlays concentrate degree).  Migrate this one table to
                # the sparse layout, whose Python-int masks are unbounded;
                # the rest of the network stays dense.
                self._go_sparse()
            self._dir_ids.append(direction)
            bits[direction] = bit
        return 1 << bit

    def _go_sparse(self) -> None:
        """Switch from the dense array columns to dict masks.

        Used when a table outgrows the 64 direction bits an ``array('Q')``
        slot offers.  Registry, bit assignments, and mask *values* are
        preserved -- only the storage changes -- so every query keeps
        returning the same results.
        """
        self._invalidate()  # memo backing state changes representation
        self._masks = {
            pattern: mask for pattern, mask in enumerate(self._masks) if mask
        }
        self._fwd_masks = {
            pattern: mask
            for pattern, mask in enumerate(self._fwd_masks)
            if mask
        }
        self._dense = False

    def _compact_registry(self) -> None:
        """Rebuild the registry keeping only directions some mask still
        uses (reconfiguration churn retires old neighbors' bits)."""
        used = 0
        for mask in self._iter_masks():
            used |= mask
        for mask in self._iter_fwd_masks():
            used |= mask
        survivors = [
            direction
            for bit, direction in enumerate(self._dir_ids)
            if used >> bit & 1
        ]
        remap = {
            self._dir_bits[direction]: new_bit
            for new_bit, direction in enumerate(survivors)
        }
        self._remap_masks(self._masks, remap)
        self._remap_masks(self._fwd_masks, remap)
        self._dir_ids = survivors
        self._dir_bits = {d: i for i, d in enumerate(survivors)}

    def _iter_masks(self) -> Iterable[int]:
        return self._masks if self._dense else self._masks.values()

    def _iter_fwd_masks(self) -> Iterable[int]:
        return self._fwd_masks if self._dense else self._fwd_masks.values()

    def _remap_masks(self, masks: _Masks, remap: Dict[int, int]) -> None:
        items = (
            enumerate(masks)
            if self._dense
            else list(masks.items())  # type: ignore[union-attr]
        )
        for key, mask in items:
            new_mask = 0
            while mask:
                low = mask & -mask
                bit = low.bit_length() - 1
                new_bit = remap.get(bit)
                if new_bit is not None:
                    new_mask |= 1 << new_bit
                mask ^= low
            masks[key] = new_mask  # type: ignore[index]

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
        if self._dense:
            if 0 <= pattern < self._size:  # type: ignore[operator]
                return self._masks[pattern]
            return 0
        return self._masks.get(pattern, 0)  # type: ignore[union-attr]

    def _fwd_mask_of(self, pattern: int) -> int:
        if self._dense:
            if 0 <= pattern < self._size:  # type: ignore[operator]
                return self._fwd_masks[pattern]
            return 0
        return self._fwd_masks.get(pattern, 0)  # type: ignore[union-attr]

    def _known_patterns(self) -> List[int]:
        if self._dense:
            masks = self._masks
            return [p for p in range(self._size) if masks[p]]  # type: ignore[arg-type]
        return sorted(self._masks)  # type: ignore[arg-type]

    # ------------------------------------------------------------------
    # Mutation
    # ------------------------------------------------------------------
    def add(self, pattern: int, direction: int) -> bool:
        """Record that ``direction`` wants events matching ``pattern``.

        Returns ``True`` if the pattern was previously unknown to this
        table (i.e. this is the first direction for it) -- the caller uses
        this to decide whether to propagate the subscription further.
        """
        self._invalidate()
        if self._dense and not 0 <= pattern < self._size:  # type: ignore[operator]
            raise ValueError(
                f"pattern {pattern} outside dense universe [0, {self._size})"
            )
        bit_value = self._register_direction(direction)
        mask = self._mask_of(pattern)
        if mask == 0:
            self._known += 1
            self._masks[pattern] = bit_value  # type: ignore[index]
            return True
        self._masks[pattern] = mask | bit_value  # type: ignore[index]
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
        if mask == 0:
            self._known -= 1
            if self._dense:
                self._masks[pattern] = 0
            else:
                del self._masks[pattern]  # type: ignore[union-attr]
        else:
            self._masks[pattern] = mask  # type: ignore[index]

    def clear(self) -> None:
        """Drop all routing state (used when routes are rebuilt)."""
        self.load({}, {})

    def load(self, routes: Mapping[int, int], forwarded: Mapping[int, int]) -> None:
        """Replace the whole table in one step (the route oracle's install).

        ``routes`` and ``forwarded`` map a direction to a pattern *bitset*
        (bit ``p`` = pattern ``p``): the patterns routed toward it, and
        those whose subscription was forwarded to it.  The registry is
        rebuilt from the directions with a nonempty set; more than 64 of
        them give the sparse layout, the end state :meth:`_go_sparse`
        reaches when the same entries are added one by one.
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
        if self._size is not None:
            if width > self._size:
                raise ValueError(
                    f"pattern {width - 1} outside dense universe [0, {self._size})"
                )
            width = self._size
        self._dir_ids = sorted(used)
        self._dir_bits = {d: i for i, d in enumerate(self._dir_ids)}
        self._dense = self._size is not None and len(used) <= _DENSE_MASK_BITS
        self._masks = self._transpose(routes, width)
        self._fwd_masks = self._transpose(forwarded, width)
        self._known = known.bit_count()

    def _transpose(self, sets: Mapping[int, int], width: int) -> _Masks:
        """Pattern-indexed direction masks of a direction -> bitset map.

        Done a byte lane at a time with int and bytes operations, not a
        Python step per entry: each bitset is spelled as one 0/1 byte per
        pattern, shifted to its direction's bit in the lane and ORed in;
        lane ``j`` then fills byte ``j`` of every ``stride``-byte mask.
        """
        stride = 8 if self._dense else (len(self._dir_ids) + 7) // 8
        lanes = [0] * stride
        spec = f"0{width}b"
        for direction, bits in sets.items():
            if bits:
                bit = self._dir_bits[direction]
                spelled = format(bits, spec).encode().translate(_BIT_BYTES)
                lanes[bit >> 3] |= int.from_bytes(spelled, "big") << (bit & 7)
        buf = bytearray(stride * width)
        for lane, value in enumerate(lanes):
            if value:
                buf[lane::stride] = value.to_bytes(width, "little")
        if self._dense:
            column = array("Q")
            column.frombytes(buf)
            if sys.byteorder == "big":
                column.byteswap()
            return column
        masks = (int.from_bytes(buf[p * stride:(p + 1) * stride], "little")
                 for p in range(width))
        return {pattern: mask for pattern, mask in enumerate(masks) if mask}

    def drop_direction(self, direction: int) -> None:
        """Remove a neighbor from every pattern (neighbor disappeared)."""
        self._invalidate()
        bit = self._dir_bits.get(direction)
        if bit is None:
            return
        keep = ~(1 << bit)
        if self._dense:
            masks = self._masks
            for pattern in range(self._size):  # type: ignore[arg-type]
                mask = masks[pattern]
                if mask:
                    mask &= keep
                    masks[pattern] = mask
                    if mask == 0:
                        self._known -= 1
            fwd_masks = self._fwd_masks
            for pattern in range(self._size):  # type: ignore[arg-type]
                mask = fwd_masks[pattern]
                if mask:
                    fwd_masks[pattern] = mask & keep
        else:
            empty = []
            for pattern, mask in self._masks.items():  # type: ignore[union-attr]
                mask &= keep
                if mask:
                    self._masks[pattern] = mask  # type: ignore[index]
                else:
                    empty.append(pattern)
            for pattern in empty:
                del self._masks[pattern]  # type: ignore[union-attr]
                self._known -= 1
            for pattern, mask in self._fwd_masks.items():  # type: ignore[union-attr]
                self._fwd_masks[pattern] = mask & keep  # type: ignore[index]

    # ------------------------------------------------------------------
    # Forwarding dedup (the paper's optimization)
    # ------------------------------------------------------------------
    def mark_forwarded(self, pattern: int, direction: int) -> bool:
        """Record that the subscription for ``pattern`` was propagated to
        ``direction``.  Returns ``False`` if it already had been (the caller
        must then *not* forward again)."""
        bit = self._dir_bits.get(direction)
        if bit is None:
            bit_value = self._register_direction(direction)
        else:
            bit_value = 1 << bit
        mask = self._fwd_mask_of(pattern)
        if mask & bit_value:
            return False
        self._fwd_masks[pattern] = mask | bit_value  # type: ignore[index]
        return True

    def unmark_forwarded(self, pattern: int, direction: int) -> None:
        """Forget that ``pattern`` was propagated to ``direction`` (after an
        unsubscription), so a future re-subscription propagates again."""
        bit = self._dir_bits.get(direction)
        if bit is None:
            return
        mask = self._fwd_mask_of(pattern)
        if not mask >> bit & 1:
            return
        mask &= ~(1 << bit)
        if mask == 0 and not self._dense:
            del self._fwd_masks[pattern]  # type: ignore[union-attr]
        else:
            self._fwd_masks[pattern] = mask  # type: ignore[index]

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
        return self._known_patterns()

    def local_patterns(self) -> List[int]:
        """Patterns subscribed locally, sorted.

        This is the pool the *subscriber-based pull* draws from ("chooses a
        pattern p among the ones associated to subscriptions issued
        locally").
        """
        local_bit = self._dir_bits.get(LOCAL)
        if local_bit is None:
            return []
        if self._dense:
            masks = self._masks
            return [
                p
                for p in range(self._size)  # type: ignore[arg-type]
                if masks[p] >> local_bit & 1
            ]
        return sorted(
            pattern
            for pattern, mask in self._masks.items()  # type: ignore[union-attr]
            if mask >> local_bit & 1
        )

    def _invalidate(self) -> None:
        """Drop the matching memo; called on every table mutation.

        The mask-intern pool goes with it: decoded tuples are a function
        of the direction registry, which mutations may rewrite.
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
        if self._dense:
            size = self._size
            for pattern in patterns:
                if 0 <= pattern < size:  # type: ignore[operator]
                    mask |= masks[pattern]
        else:
            for pattern in patterns:
                mask |= masks.get(pattern, 0)  # type: ignore[union-attr]
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
        for pattern in self._known_patterns():
            yield pattern, self.directions(pattern)

    def __repr__(self) -> str:  # pragma: no cover - debug aid
        return f"<SubscriptionTable patterns={self._known}>"

"""The discrete-event engine: clock, calendar, and run loop.

The design is deliberately minimal and fast.  Everything in the repository --
link transmissions, gossip timers, publisher processes -- ultimately boils
down to ``simulator.schedule(delay, callback, *args)``.

Determinism
-----------
Events are ordered by ``(time, sequence_number)`` where the sequence number
is a monotonically increasing insertion counter.  Two events scheduled for
the same instant therefore fire in the order they were scheduled, which makes
whole simulations reproducible bit-for-bit given a seed.

Performance
-----------
:class:`Simulator` keeps the calendar in a hierarchical timer wheel: events
within the wheel horizon are appended (O(1)) to fixed-width time buckets and
only the *current* bucket lives in a binary heap, so the per-event heap is a
few dozen entries instead of the whole calendar.  Far-future events overflow
into a plain heap and are pulled forward as the wheel advances.  The layout
exploits the workload: the overwhelming majority of schedules are
short-horizon periodic timers (gossip rounds, retry/backoff probes, link
serialization completions) that land a few buckets ahead.

Ordering is nevertheless *identical* to a single global heap.  Bucket
indices are ``int(time * inv_width)``, which is monotone non-decreasing in
``time``; the wheel only ever drains the minimal occupied index, merging any
due overflow entries, and heapifies the merged bucket by ``(time, seq)``.
Strictly smaller bucket index implies strictly earlier time and equal times
share a bucket, so the pop sequence -- and with it every
``RunResult.signature()`` -- is byte-identical to a single-heap reference
kernel (``tests/sim/heap_simulator.py``, the differential-testing oracle).

Entries come in two shapes: ``(time, seq, handle)`` for cancellable
schedules and ``(time, seq, callback, args)`` for fire-and-forget ones
(:meth:`Simulator.schedule_call`).  ``seq`` is unique, so tuple comparison
never reaches the third element and runs entirely in C.  Cancellation stays
lazy (O(1) tombstoning); the simulator counts cancelled entries and compacts
all containers when tombstones outnumber live entries, which bounds calendar
size under timer-heavy workloads that cancel most of what they schedule.
"""

from __future__ import annotations

import heapq
from typing import Any, Callable, Dict, List, Optional, Tuple

# Bound once: a module-global lookup per event is measurably cheaper than
# an attribute lookup on the heapq module in the scheduling hot path.
_heappush = heapq.heappush
_heappop = heapq.heappop
_heapify = heapq.heapify

__all__ = ["Simulator", "ScheduledEvent", "SimulationError"]


class SimulationError(RuntimeError):
    """Raised for invalid uses of the simulation kernel.

    Examples: scheduling an event in the past, running a simulator that was
    already stopped, or re-cancelling a fired event when strict mode is on.
    """


class ScheduledEvent:
    """Handle for a scheduled callback.

    Instances are returned by :meth:`Simulator.schedule` and
    :meth:`Simulator.schedule_at`; the only interesting operation on them is
    :meth:`cancel`.  Cancellation is *lazy*: the entry stays in the calendar
    but is skipped when popped, which keeps cancellation O(1).
    """

    __slots__ = ("time", "seq", "callback", "args", "cancelled", "_sim")

    def __init__(
        self,
        time: float,
        seq: int,
        callback: Callable[..., Any],
        args: tuple,
        sim: "Optional[Simulator]" = None,
    ) -> None:
        self.time = time
        self.seq = seq
        self.callback = callback
        self.args = args
        self.cancelled = False
        self._sim = sim

    def cancel(self) -> None:
        """Prevent the callback from firing.  Idempotent."""
        if self.cancelled:
            return
        self.cancelled = True
        # Drop references eagerly so cancelled events do not pin large
        # payloads (e.g. message objects) in memory until they are popped.
        self.callback = _noop
        self.args = ()
        sim = self._sim
        if sim is not None:
            self._sim = None
            sim._note_cancelled()

    def __lt__(self, other: "ScheduledEvent") -> bool:
        if self.time != other.time:
            return self.time < other.time
        return self.seq < other.seq

    def __repr__(self) -> str:  # pragma: no cover - debug aid
        state = "cancelled" if self.cancelled else "pending"
        return f"<ScheduledEvent t={self.time:.6f} seq={self.seq} {state}>"


def _noop(*_args: Any) -> None:
    """Placeholder callback installed by :meth:`ScheduledEvent.cancel`."""


#: Calendar entry: ``(time, seq, handle)`` for cancellable schedules, or
#: ``(time, seq, callback, args)`` for fire-and-forget ones (see
#: :meth:`Simulator.schedule_call`).  ``seq`` is unique, so tuple comparison
#: never falls through to the third element, and the two shapes are told
#: apart by length.
_Entry = Tuple[Any, ...]

#: Compaction only kicks in above this calendar size: tiny calendars are
#: cheap to scan anyway and constant churn would dominate.
_COMPACT_MIN_SIZE = 64

#: Default bucket width.  Chosen so that link completions (~2e-4 s) land in
#: the current or next bucket and a 30 ms gossip round is ~60 buckets out.
_WHEEL_WIDTH = 5e-4

#: Default wheel horizon in buckets (width * slots = 0.128 s).  Anything
#: farther out overflows into a plain heap.
_WHEEL_SLOTS = 256


class Simulator:
    """A sequential discrete-event simulator backed by a timer wheel.

    Parameters
    ----------
    strict:
        When true, scheduling in the past raises :class:`SimulationError`
        instead of clamping the event to the current time.
    bucket_width:
        Wheel bucket granularity in simulated seconds.
    wheel_slots:
        Number of buckets ahead of the clock the wheel spans; events beyond
        ``bucket_width * wheel_slots`` go to the overflow heap until the
        wheel catches up.

    Usage
    -----
    >>> sim = Simulator()
    >>> fired = []
    >>> _ = sim.schedule(1.5, fired.append, "a")
    >>> _ = sim.schedule(0.5, fired.append, "b")
    >>> sim.run()
    >>> fired
    ['b', 'a']
    >>> sim.now
    1.5
    """

    def __init__(
        self,
        strict: bool = True,
        bucket_width: float = _WHEEL_WIDTH,
        wheel_slots: int = _WHEEL_SLOTS,
    ) -> None:
        if bucket_width <= 0.0:
            raise SimulationError(f"bucket_width must be positive, got {bucket_width}")
        if wheel_slots < 1:
            raise SimulationError(f"wheel_slots must be >= 1, got {wheel_slots}")
        self._now: float = 0.0
        self._seq: int = 0
        self._running: bool = False
        self._stopped: bool = False
        self._processed: int = 0
        self._cancelled: int = 0
        self._strict = strict
        # --- timer wheel state -----------------------------------------
        self._inv_width: float = 1.0 / bucket_width
        self._slots: int = wheel_slots
        #: Entries currently due: a (time, seq, ...) heap holding everything
        #: with bucket index <= ``_cur_idx``.  The run loop pops from here.
        self._current: List[_Entry] = []
        #: Absolute bucket index -> unordered list of entries; only indices
        #: strictly greater than ``_cur_idx`` exist here.
        self._buckets: Dict[int, List[_Entry]] = {}
        #: ``self._buckets.get`` bound once -- the dict object is never
        #: replaced (compaction and clear() mutate it in place).
        self._bucket_get = self._buckets.get
        #: Min-heap of occupied bucket indices (may contain stale indices
        #: after compaction; they are skipped lazily).
        self._bucket_heap: List[int] = []
        #: Far-future entries (>= ``wheel_slots`` buckets ahead when
        #: scheduled), as a (time, seq, ...) heap.
        self._overflow: List[_Entry] = []
        self._cur_idx: int = 0

    # ------------------------------------------------------------------
    # Clock
    # ------------------------------------------------------------------
    @property
    def now(self) -> float:
        """Current simulation time in seconds."""
        return self._now

    @property
    def events_processed(self) -> int:
        """Number of callbacks executed so far (cancelled events excluded)."""
        return self._processed

    @property
    def pending(self) -> int:
        """Number of events still in the calendar (including cancelled)."""
        return (
            len(self._current)
            + len(self._overflow)
            + sum(map(len, self._buckets.values()))
        )

    @property
    def cancelled_pending(self) -> int:
        """Cancelled entries still occupying the calendar."""
        return self._cancelled

    # ------------------------------------------------------------------
    # Scheduling
    # ------------------------------------------------------------------
    def schedule(
        self, delay: float, callback: Callable[..., Any], *args: Any
    ) -> ScheduledEvent:
        """Schedule ``callback(*args)`` to run ``delay`` seconds from now.

        Returns a :class:`ScheduledEvent` handle that can be cancelled.

        The wheel routing below is inlined into all four schedule methods:
        these are the hottest entry points in the tree and an extra Python
        frame per event is measurable at millions of calls.
        """
        time = self._now + delay
        if time < self._now:
            if self._strict:
                raise SimulationError(
                    f"cannot schedule at t={time:.6f}, now is t={self._now:.6f}"
                )
            time = self._now
        seq = self._seq
        self._seq = seq + 1
        event = ScheduledEvent(time, seq, callback, args, self)
        idx = int(time * self._inv_width)
        # Existing buckets always satisfy cur < idx < cur + slots (indices
        # are removed from the dict before the wheel reaches them), so an
        # occupied-bucket hit -- the common case -- needs no range checks.
        bucket = self._bucket_get(idx)
        if bucket is not None:
            bucket.append((time, seq, event))
            return event
        cur = self._cur_idx
        if idx <= cur:
            _heappush(self._current, (time, seq, event))
        elif idx - cur >= self._slots:
            _heappush(self._overflow, (time, seq, event))
        else:
            self._buckets[idx] = [(time, seq, event)]
            _heappush(self._bucket_heap, idx)
        return event

    def schedule_at(
        self, time: float, callback: Callable[..., Any], *args: Any
    ) -> ScheduledEvent:
        """Schedule ``callback(*args)`` at absolute simulation ``time``."""
        if time < self._now:
            if self._strict:
                raise SimulationError(
                    f"cannot schedule at t={time:.6f}, now is t={self._now:.6f}"
                )
            time = self._now
        seq = self._seq
        self._seq = seq + 1
        event = ScheduledEvent(time, seq, callback, args, self)
        idx = int(time * self._inv_width)
        # Existing buckets always satisfy cur < idx < cur + slots (indices
        # are removed from the dict before the wheel reaches them), so an
        # occupied-bucket hit -- the common case -- needs no range checks.
        bucket = self._bucket_get(idx)
        if bucket is not None:
            bucket.append((time, seq, event))
            return event
        cur = self._cur_idx
        if idx <= cur:
            _heappush(self._current, (time, seq, event))
        elif idx - cur >= self._slots:
            _heappush(self._overflow, (time, seq, event))
        else:
            self._buckets[idx] = [(time, seq, event)]
            _heappush(self._bucket_heap, idx)
        return event

    def schedule_call(
        self, delay: float, callback: Callable[..., Any], *args: Any
    ) -> None:
        """Fire-and-forget ``schedule``: no cancellable handle is created.

        Meant for high-volume schedules that are never cancelled (e.g. link
        deliveries): the calendar stores a bare ``(time, seq, callback,
        args)`` tuple, skipping the :class:`ScheduledEvent` allocation.
        Ordering semantics are identical to :meth:`schedule`.
        """
        time = self._now + delay
        if time < self._now:
            if self._strict:
                raise SimulationError(
                    f"cannot schedule at t={time:.6f}, now is t={self._now:.6f}"
                )
            time = self._now
        seq = self._seq
        self._seq = seq + 1
        idx = int(time * self._inv_width)
        bucket = self._bucket_get(idx)
        if bucket is not None:
            bucket.append((time, seq, callback, args))
            return
        cur = self._cur_idx
        if idx <= cur:
            _heappush(self._current, (time, seq, callback, args))
        elif idx - cur >= self._slots:
            _heappush(self._overflow, (time, seq, callback, args))
        else:
            self._buckets[idx] = [(time, seq, callback, args)]
            _heappush(self._bucket_heap, idx)

    def schedule_call_at(
        self, time: float, callback: Callable[..., Any], *args: Any
    ) -> None:
        """Fire-and-forget :meth:`schedule_at` (see :meth:`schedule_call`)."""
        if time < self._now:
            if self._strict:
                raise SimulationError(
                    f"cannot schedule at t={time:.6f}, now is t={self._now:.6f}"
                )
            time = self._now
        seq = self._seq
        self._seq = seq + 1
        idx = int(time * self._inv_width)
        bucket = self._bucket_get(idx)
        if bucket is not None:
            bucket.append((time, seq, callback, args))
            return
        cur = self._cur_idx
        if idx <= cur:
            _heappush(self._current, (time, seq, callback, args))
        elif idx - cur >= self._slots:
            _heappush(self._overflow, (time, seq, callback, args))
        else:
            self._buckets[idx] = [(time, seq, callback, args)]
            _heappush(self._bucket_heap, idx)

    # ------------------------------------------------------------------
    # Wheel advancement
    # ------------------------------------------------------------------
    def _advance(self) -> bool:
        """Refill the (empty) current heap from the earliest occupied
        bucket and any overflow entries due by then.

        Returns ``False`` when the whole calendar is drained.  On ``True``
        the current heap is guaranteed non-empty (though it may hold only
        tombstones, which callers skip).
        """
        buckets = self._buckets
        bucket_heap = self._bucket_heap
        heappop = heapq.heappop
        # Skip indices whose bucket was emptied by compaction.
        while bucket_heap and bucket_heap[0] not in buckets:
            heappop(bucket_heap)
        overflow = self._overflow
        if bucket_heap:
            target = bucket_heap[0]
            if overflow:
                over_idx = int(overflow[0][0] * self._inv_width)
                if over_idx < target:
                    target = over_idx
        elif overflow:
            target = int(overflow[0][0] * self._inv_width)
        else:
            return False
        current = self._current
        if bucket_heap and bucket_heap[0] == target:
            heappop(bucket_heap)
            current.extend(buckets.pop(target))
        # Pull every overflow entry due in or before the target bucket
        # (index <= target, i.e. time < (target + 1) * width).
        limit = target + 1
        inv = self._inv_width
        while overflow and overflow[0][0] * inv < limit:
            current.append(heappop(overflow))
        heapq.heapify(current)
        self._cur_idx = target
        return True

    # ------------------------------------------------------------------
    # Cancellation bookkeeping
    # ------------------------------------------------------------------
    def _note_cancelled(self) -> None:
        """Called by :meth:`ScheduledEvent.cancel`; compacts the calendar
        when cancelled entries outnumber live ones."""
        self._cancelled += 1
        size = (
            len(self._current)
            + len(self._overflow)
            + sum(map(len, self._buckets.values()))
        )
        if size > _COMPACT_MIN_SIZE and self._cancelled * 2 > size:
            self._compact()

    def _compact(self) -> None:
        """Rebuild every container without its cancelled entries (in place,
        so a ``run`` loop holding a reference to the current heap keeps
        working)."""
        self._current[:] = [
            entry
            for entry in self._current
            if len(entry) == 4 or not entry[2].cancelled
        ]
        heapq.heapify(self._current)
        self._overflow[:] = [
            entry
            for entry in self._overflow
            if len(entry) == 4 or not entry[2].cancelled
        ]
        heapq.heapify(self._overflow)
        buckets = self._buckets
        for idx in list(buckets):
            kept = [
                entry
                for entry in buckets[idx]
                if len(entry) == 4 or not entry[2].cancelled
            ]
            if kept:
                buckets[idx] = kept
            else:
                del buckets[idx]
        # A sorted list is a valid heap; this also drops stale indices.
        self._bucket_heap[:] = sorted(buckets)
        self._cancelled = 0

    # ------------------------------------------------------------------
    # Running
    # ------------------------------------------------------------------
    def run(self, until: Optional[float] = None, max_events: Optional[int] = None) -> None:
        """Run the event loop.

        Parameters
        ----------
        until:
            Stop once the clock would pass this time.  Events scheduled at
            exactly ``until`` *do* fire; the clock ends at ``until`` if the
            horizon was reached, or at the last event time if the calendar
            drained first.
        max_events:
            Safety valve: stop after this many callbacks.
        """
        if self._running:
            raise SimulationError("simulator is already running (re-entrant run())")
        self._running = True
        self._stopped = False
        # ``_advance`` refills this list in place, so the alias stays valid.
        current = self._current
        heappop = heapq.heappop
        budget = max_events if max_events is not None else -1
        # float('inf') compares false against every event time, letting the
        # loop skip the horizon branch without re-testing ``until is None``.
        horizon = until if until is not None else float("inf")
        # The processed counter is kept in a local and flushed on exit;
        # nothing observes it mid-run (it is only read after run() returns).
        processed = self._processed
        try:
            while not self._stopped:
                if not current:
                    if not self._advance():
                        if until is not None and self._now < until:
                            self._now = until
                        break
                entry = current[0]
                time = entry[0]
                if time > horizon:
                    self._now = until
                    break
                heappop(current)
                if len(entry) == 4:
                    # Fire-and-forget entry: (time, seq, callback, args).
                    self._now = time
                    entry[2](*entry[3])
                else:
                    event = entry[2]
                    if event.cancelled:
                        self._cancelled -= 1
                        continue
                    self._now = time
                    event.callback(*event.args)
                processed += 1
                if budget > 0:
                    budget -= 1
                    if budget == 0:
                        break
        finally:
            self._processed = processed
            self._running = False

    def step(self) -> bool:
        """Execute the single next pending event.

        Returns ``True`` if an event was executed, ``False`` if the calendar
        is empty.  Cancelled entries are skipped transparently.
        """
        current = self._current
        while True:
            if not current:
                if not self._advance():
                    return False
            entry = heapq.heappop(current)
            if len(entry) == 4:
                self._now = entry[0]
                entry[2](*entry[3])
                self._processed += 1
                return True
            event = entry[2]
            if event.cancelled:
                self._cancelled -= 1
                continue
            self._now = entry[0]
            event.callback(*event.args)
            self._processed += 1
            return True

    def stop(self) -> None:
        """Request the run loop to stop after the current callback."""
        self._stopped = True

    def peek(self) -> Optional[float]:
        """Time of the next non-cancelled event, or ``None`` if drained."""
        current = self._current
        while True:
            if not current:
                if not self._advance():
                    return None
            head = current[0]
            if len(head) == 4 or not head[2].cancelled:
                return head[0]
            heapq.heappop(current)
            self._cancelled -= 1

    def clear(self) -> None:
        """Drop every pending event.  The clock is left unchanged."""
        self._current.clear()
        self._buckets.clear()
        self._bucket_heap.clear()
        self._overflow.clear()
        self._cancelled = 0

    def __repr__(self) -> str:  # pragma: no cover - debug aid
        return (
            f"<Simulator t={self._now:.6f} pending={self.pending} "
            f"processed={self._processed}>"
        )

"""The discrete-event engine: clock, calendar, and run loop.

Everything in the repository -- link transmissions, gossip timers, publisher
processes -- boils down to ``simulator.schedule(delay, callback, *args)``.

Events fire in ``(time, seq)`` order, where ``seq`` is an insertion
counter: two events for the same instant fire in the order they were
scheduled, so a seeded simulation reproduces bit for bit.

The calendar is one binary heap (``heapq``).  Paper-scale runs keep a few
hundred entries pending and a 10k-node run about ten thousand, so a push or
pop is a handful of C-level tuple comparisons.  A bucketed timer wheel was
measured against it and did not pay for its code (docs/PERFORMANCE.md,
"The event calendar").  Cancellation is lazy: a cancelled entry stays in
the heap until popped, and the heap is compacted in place when such
entries outnumber live ones.
"""

from __future__ import annotations

import heapq
from typing import Any, Callable, List, Optional, Tuple

# Bound once: a module-global lookup per event is measurably cheaper than
# an attribute lookup on the heapq module in the scheduling hot path.
_heappush = heapq.heappush
_heappop = heapq.heappop

__all__ = ["Simulator", "ScheduledEvent", "SimulationError"]


class SimulationError(RuntimeError):
    """Raised for invalid uses of the simulation kernel.

    Examples: scheduling an event in the past, or calling :meth:`Simulator.run`
    from inside a callback of the same simulator.
    """


class ScheduledEvent:
    """Handle for a scheduled callback.

    Instances are returned by :meth:`Simulator.schedule` and
    :meth:`Simulator.schedule_at`; the only interesting operation on them is
    :meth:`cancel`.  Cancellation is *lazy*: the entry stays in the calendar
    but is skipped when popped, which keeps cancellation O(1).
    """

    __slots__ = ("time", "seq", "callback", "args", "cancelled", "_sim")

    def __init__(self, time: float, seq: int, callback: Callable[..., Any],
                 args: tuple, sim: "Optional[Simulator]" = None) -> None:
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

    def __repr__(self) -> str:  # pragma: no cover - debug aid
        state = "cancelled" if self.cancelled else "pending"
        return f"<ScheduledEvent t={self.time:.6f} seq={self.seq} {state}>"


def _noop(*_args: Any) -> None:
    """Placeholder callback installed by :meth:`ScheduledEvent.cancel`."""


def _in_the_past(time: float, now: float) -> SimulationError:
    """The error every schedule method raises for a time before ``now``."""
    return SimulationError(f"cannot schedule at t={time:.6f}, now is t={now:.6f}")


#: Calendar entry: ``(time, seq, handle)`` for cancellable schedules, or
#: ``(time, seq, callback, args)`` for fire-and-forget ones, told apart by
#: length.  ``seq`` is unique, so comparison never reaches the third item.
_Entry = Tuple[Any, ...]

#: Compaction only kicks in above this calendar size: tiny calendars are
#: cheap to scan anyway and constant churn would dominate.
_COMPACT_MIN_SIZE = 64


class Simulator:
    """A sequential discrete-event simulator over one binary-heap calendar.

    Scheduling at a time earlier than :attr:`now` raises
    :class:`SimulationError`.

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

    def __init__(self) -> None:
        #: The calendar: a ``(time, seq, ...)`` heap of :data:`_Entry`.
        self._queue: List[_Entry] = []
        self._now: float = 0.0
        self._seq: int = 0
        self._running: bool = False
        self._stopped: bool = False
        self._processed: int = 0
        self._cancelled: int = 0

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
        return len(self._queue)

    @property
    def cancelled_pending(self) -> int:
        """Cancelled entries still occupying the calendar."""
        return self._cancelled

    def schedule(
        self, delay: float, callback: Callable[..., Any], *args: Any
    ) -> ScheduledEvent:
        """Schedule ``callback(*args)`` to run ``delay`` seconds from now.

        Returns a :class:`ScheduledEvent` handle that can be cancelled.

        The push is inlined into all four schedule methods: these are the
        hottest entry points in the tree and an extra Python frame per
        event is measurable at millions of calls.
        """
        time = self._now + delay
        if time < self._now:
            raise _in_the_past(time, self._now)
        seq = self._seq
        self._seq = seq + 1
        event = ScheduledEvent(time, seq, callback, args, self)
        _heappush(self._queue, (time, seq, event))
        return event

    def schedule_at(
        self, time: float, callback: Callable[..., Any], *args: Any
    ) -> ScheduledEvent:
        """Schedule ``callback(*args)`` at absolute simulation ``time``."""
        if time < self._now:
            raise _in_the_past(time, self._now)
        seq = self._seq
        self._seq = seq + 1
        event = ScheduledEvent(time, seq, callback, args, self)
        _heappush(self._queue, (time, seq, event))
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
            raise _in_the_past(time, self._now)
        seq = self._seq
        self._seq = seq + 1
        _heappush(self._queue, (time, seq, callback, args))

    def schedule_call_at(
        self, time: float, callback: Callable[..., Any], *args: Any
    ) -> None:
        """Fire-and-forget :meth:`schedule_at` (see :meth:`schedule_call`)."""
        if time < self._now:
            raise _in_the_past(time, self._now)
        seq = self._seq
        self._seq = seq + 1
        _heappush(self._queue, (time, seq, callback, args))

    def _note_cancelled(self) -> None:
        """Called by :meth:`ScheduledEvent.cancel`; compacts the calendar
        when cancelled entries outnumber live ones."""
        self._cancelled += 1
        size = len(self._queue)
        if size > _COMPACT_MIN_SIZE and self._cancelled * 2 > size:
            self._compact()

    def _compact(self) -> None:
        """Rebuild the heap without its cancelled entries (in place, so a
        ``run`` loop holding a reference to the list keeps working)."""
        self._queue[:] = [
            entry
            for entry in self._queue
            if len(entry) == 4 or not entry[2].cancelled
        ]
        heapq.heapify(self._queue)
        self._cancelled = 0

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
        # Compaction rebuilds this list in place, so the alias stays valid.
        queue = self._queue
        heappop = _heappop
        budget = max_events if max_events is not None else -1
        # float('inf') compares false against every event time, letting the
        # loop skip the horizon branch without re-testing ``until is None``.
        horizon = until if until is not None else float("inf")
        # The processed counter is kept in a local and flushed on exit;
        # nothing observes it mid-run (it is only read after run() returns).
        processed = self._processed
        try:
            while queue and not self._stopped:
                entry = queue[0]
                time = entry[0]
                if time > horizon:
                    self._now = until
                    break
                heappop(queue)
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
                    # Off the calendar now: a later cancel() (e.g. a
                    # periodic tick stopping its own timer) must not count
                    # it as a cancelled entry still pending.
                    event._sim = None
                    event.callback(*event.args)
                processed += 1
                if budget > 0:
                    budget -= 1
                    if budget == 0:
                        break
            else:
                # Drained (not stopped): the clock still reaches the horizon.
                if until is not None and not self._stopped and self._now < until:
                    self._now = until
        finally:
            self._processed = processed
            self._running = False

    def step(self) -> bool:
        """Execute the single next pending event.

        Returns ``True`` if an event was executed, ``False`` if the calendar
        is empty.  Cancelled entries are skipped transparently.
        """
        before = self._processed
        self.run(max_events=1)
        return self._processed != before

    def stop(self) -> None:
        """Request the run loop to stop after the current callback."""
        self._stopped = True

    def peek(self) -> Optional[float]:
        """Time of the next non-cancelled event, or ``None`` if drained."""
        queue = self._queue
        while queue:
            head = queue[0]
            if len(head) == 4 or not head[2].cancelled:
                return head[0]
            _heappop(queue)
            self._cancelled -= 1
        return None

    def clear(self) -> None:
        """Drop every pending event.  The clock is left unchanged."""
        for entry in self._queue:
            if len(entry) == 3:
                entry[2]._sim = None
        self._queue.clear()
        self._cancelled = 0

    def __repr__(self) -> str:  # pragma: no cover - debug aid
        return (
            f"<Simulator t={self._now:.6f} pending={len(self._queue)} "
            f"processed={self._processed}>"
        )

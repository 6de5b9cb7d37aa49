"""Reference event kernel for the timer-wheel differential tests."""

from __future__ import annotations

import heapq
from typing import Any, Callable, List, Optional, Tuple

from repro.sim.engine import _COMPACT_MIN_SIZE, ScheduledEvent, SimulationError

_Entry = Tuple[Any, ...]


class HeapSimulator:
    """The pre-wheel reference kernel: one global binary heap.

    Kept verbatim as a differential-testing oracle: the property tests in
    ``tests/sim/test_wheel_equivalence.py`` replay randomized schedule/cancel
    workloads and whole scenarios against both kernels and assert identical
    fire order, clocks, and ``RunResult.signature()`` values.
    """

    def __init__(self, strict: bool = True) -> None:
        self._queue: List[_Entry] = []
        self._now: float = 0.0
        self._seq: int = 0
        self._running: bool = False
        self._stopped: bool = False
        self._processed: int = 0
        self._cancelled: int = 0
        self._strict = strict

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
        return len(self._queue)

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
        """Schedule ``callback(*args)`` to run ``delay`` seconds from now."""
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
        heapq.heappush(self._queue, (time, seq, event))
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
        heapq.heappush(self._queue, (time, seq, event))
        return event

    def schedule_call(
        self, delay: float, callback: Callable[..., Any], *args: Any
    ) -> None:
        """Fire-and-forget ``schedule``: no cancellable handle is created."""
        time = self._now + delay
        if time < self._now:
            if self._strict:
                raise SimulationError(
                    f"cannot schedule at t={time:.6f}, now is t={self._now:.6f}"
                )
            time = self._now
        seq = self._seq
        self._seq = seq + 1
        heapq.heappush(self._queue, (time, seq, callback, args))

    def schedule_call_at(
        self, time: float, callback: Callable[..., Any], *args: Any
    ) -> None:
        """Fire-and-forget :meth:`schedule_at`."""
        if time < self._now:
            if self._strict:
                raise SimulationError(
                    f"cannot schedule at t={time:.6f}, now is t={self._now:.6f}"
                )
            time = self._now
        seq = self._seq
        self._seq = seq + 1
        heapq.heappush(self._queue, (time, seq, callback, args))

    # ------------------------------------------------------------------
    # Cancellation bookkeeping
    # ------------------------------------------------------------------
    def _note_cancelled(self) -> None:
        """Called by :meth:`ScheduledEvent.cancel`; compacts the calendar
        when cancelled entries outnumber live ones."""
        self._cancelled += 1
        if (
            len(self._queue) > _COMPACT_MIN_SIZE
            and self._cancelled * 2 > len(self._queue)
        ):
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

    # ------------------------------------------------------------------
    # Running
    # ------------------------------------------------------------------
    def run(self, until: Optional[float] = None, max_events: Optional[int] = None) -> None:
        """Run the event loop (see :meth:`Simulator.run`)."""
        if self._running:
            raise SimulationError("simulator is already running (re-entrant run())")
        self._running = True
        self._stopped = False
        queue = self._queue
        heappop = heapq.heappop
        budget = max_events if max_events is not None else -1
        horizon = until if until is not None else float("inf")
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
            else:
                if until is not None and not self._stopped and self._now < until:
                    self._now = until
        finally:
            self._processed = processed
            self._running = False

    def step(self) -> bool:
        """Execute the single next pending event."""
        while self._queue:
            entry = heapq.heappop(self._queue)
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
        return False

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
            heapq.heappop(queue)
            self._cancelled -= 1
        return None

    def clear(self) -> None:
        """Drop every pending event.  The clock is left unchanged."""
        self._queue.clear()
        self._cancelled = 0

    def __repr__(self) -> str:  # pragma: no cover - debug aid
        return (
            f"<HeapSimulator t={self._now:.6f} pending={len(self._queue)} "
            f"processed={self._processed}>"
        )

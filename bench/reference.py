"""A fixed reference workload that gauges the host's speed during a run.

The host this benchmark was built on is a VM on a shared machine whose
speed drifts by 10-40% over minutes, in user CPU time as much as in wall
time, and no statistic over one run's repeats removes a slowdown that
outlasts the run.  So ``measure.py`` steps this workload by one slice
right after each step of the simulator's event loop: slice ``i`` of the
reference and step ``i`` of the loop run at the same moments of every
repeat, on the host in the same state, and ``run.py`` reduces both the
same way (each slice at its fastest across repeats, summed).  It then
scales every reported time by :data:`NOMINAL_S` over the reference's
total, so that a time reads as it would at the host's nominal speed.

The workload is a miniature of the simulator in plain Python, so that it
leans on the interpreter, the allocator and the caches as the simulator
does: content-based routing of published events down a random tree of
dispatchers, each with a subscription table, a FIFO event cache of
:data:`BUFFER` entries and a log of what it received, driven by a heap
calendar of bound-method callbacks carrying ``__slots__`` messages.  It
uses nothing from ``src/``, so a change to the simulator cannot move it.

Changing this module re-scales every reported time: do it only in a
commit that changes the benchmark, never in one that claims a gain.
"""

from __future__ import annotations

import heapq
from collections import deque
from typing import Dict, List

__all__ = ["NOMINAL_S", "SLICES", "Reference"]

#: Slices a timed repeat runs: one after each step of the event loop.
SLICES = 100
#: Calendar entries one slice processes.
EVENTS = 1000
#: Dispatchers, patterns, subscriptions per dispatcher, cache entries.
NODES = 100
PATTERNS = 70
SUBSCRIPTIONS = 2
BUFFER = 1500
#: Seconds the first :data:`SLICES` slices of a fresh :class:`Reference`
#: take, each at its fastest across a run, at the nominal speed of the
#: 2-vCPU Xeon VM described in ``README.md`` (Python 3.11).
NOMINAL_S = 0.22


class _Rng:
    """A 31-bit LCG: the same draws on every Python version."""

    __slots__ = ("state",)

    def __init__(self, seed: int) -> None:
        self.state = seed

    def below(self, bound: int) -> int:
        self.state = (self.state * 1103515245 + 12345) % 2147483648
        return self.state % bound


class _Message:
    __slots__ = ("source", "seq", "pattern")

    def __init__(self, source: int, seq: int, pattern: int) -> None:
        self.source = source
        self.seq = seq
        self.pattern = pattern


class _Dispatcher:
    __slots__ = ("node_id", "system", "table", "cache", "cached", "received")

    def __init__(self, node_id: int, system: "Reference") -> None:
        self.node_id = node_id
        self.system = system
        self.table: Dict[int, List[int]] = {}
        self.cache: deque = deque()
        self.cached: Dict[tuple, _Message] = {}
        self.received = set()

    def receive(self, message: _Message, sender: int) -> None:
        key = (message.source, message.seq)
        if key in self.received:
            return
        self.received.add(key)
        self.cache.append(key)
        self.cached[key] = message
        if len(self.cache) > BUFFER:
            del self.cached[self.cache.popleft()]
        system = self.system
        for neighbour in self.table.get(message.pattern, ()):
            if neighbour != sender:
                system.send(self.node_id, neighbour, message)


class Reference:
    """One run of the reference workload, advanced by :meth:`step`."""

    def __init__(self) -> None:
        rng = self.rng = _Rng(12345)
        self.now = 0.0
        self.seq = 0
        self.calendar: list = []
        self.nodes = [_Dispatcher(node_id, self) for node_id in range(NODES)]
        parent = [0] + [rng.below(node_id) for node_id in range(1, NODES)]
        neighbours: List[List[int]] = [[] for _ in range(NODES)]
        for child in range(1, NODES):
            neighbours[child].append(parent[child])
            neighbours[parent[child]].append(child)
        # A dispatcher routes a pattern toward every neighbour behind
        # which someone subscribes to it: flood each subscription out.
        for subscriber in range(NODES):
            for _ in range(SUBSCRIPTIONS):
                pattern = rng.below(PATTERNS)
                stack = [(subscriber, -1)]
                while stack:
                    node_id, toward = stack.pop()
                    row = self.nodes[node_id].table.setdefault(pattern, [])
                    if toward >= 0 and toward not in row:
                        row.append(toward)
                    stack.extend(
                        (n, node_id) for n in neighbours[node_id] if n != toward
                    )
        for node_id in range(NODES):
            self.schedule(rng.below(1000) / 1e6, self.publish, node_id)

    def schedule(self, delay: float, callback, *args) -> None:
        self.seq += 1
        heapq.heappush(self.calendar, (self.now + delay, self.seq, callback, args))

    def send(self, source: int, target: int, message: _Message) -> None:
        self.schedule(0.001 + self.rng.below(100) / 1e6,
                      self.nodes[target].receive, message, source)

    def publish(self, node_id: int) -> None:
        message = _Message(node_id, self.seq, self.rng.below(PATTERNS))
        self.nodes[node_id].receive(message, -1)
        self.schedule(0.02 + self.rng.below(1000) / 1e6, self.publish, node_id)

    def step(self) -> None:
        """Process the next slice: :data:`EVENTS` calendar entries."""
        calendar = self.calendar
        for _ in range(EVENTS):
            self.now, _, callback, args = heapq.heappop(calendar)
            callback(*args)

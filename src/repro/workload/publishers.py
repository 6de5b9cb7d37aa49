"""Publishing processes.

Each dispatcher publishes continuously at a configured rate.  Two timing
models are offered:

* ``"poisson"`` (default): exponential inter-publish gaps -- the natural
  model for "about 50 publish/s" aggregate behaviour;
* ``"periodic"``: fixed period with a random initial phase.

Event content is drawn per publish from the pattern space (uniform, at most
``max_event_patterns`` patterns -- the paper's footnote 5 caps it at 3).
"""

from __future__ import annotations

import random
from typing import Callable, List, Optional

from repro.pubsub.pattern import PatternSpace
from repro.pubsub.system import PubSubSystem
from repro.sim.engine import ScheduledEvent, Simulator

__all__ = ["PublisherProcess", "AggregatePublisherPool", "start_publishers"]


class PublisherProcess:
    """Drive one dispatcher's continuous publishing.

    Parameters
    ----------
    system:
        The pub-sub system to publish into.
    node_id:
        The publishing dispatcher.
    rate:
        Publish operations per simulated second (> 0).
    rng:
        Random stream for timing and event content.
    model:
        ``"poisson"`` or ``"periodic"``.
    max_event_patterns:
        Cap on the number of patterns per event (paper: 3).
    until:
        Stop publishing at this simulation time (``None`` = never).
    """

    __slots__ = ("system", "node_id", "rate", "rng", "model",
                 "max_event_patterns", "until", "published",
                 "_handle", "_running")

    def __init__(
        self,
        system: PubSubSystem,
        node_id: int,
        rate: float,
        rng: random.Random,
        model: str = "poisson",
        max_event_patterns: int = 3,
        until: Optional[float] = None,
    ) -> None:
        if rate <= 0:
            raise ValueError(f"publish rate must be positive, got {rate}")
        if model not in ("poisson", "periodic"):
            raise ValueError(f"unknown publish model {model!r}")
        self.system = system
        self.node_id = node_id
        self.rate = rate
        self.rng = rng
        self.model = model
        self.max_event_patterns = max_event_patterns
        self.until = until
        self.published = 0
        self._handle: Optional[ScheduledEvent] = None
        self._running = False

    @property
    def sim(self) -> Simulator:
        return self.system.sim

    def start(self) -> None:
        """Arm the process; the first publish happens after one gap."""
        if self._running:
            return
        self._running = True
        self._handle = self.sim.schedule(self._next_gap(), self._publish_one)

    def stop(self) -> None:
        self._running = False
        if self._handle is not None:
            self._handle.cancel()
            self._handle = None

    def _next_gap(self) -> float:
        if self.model == "poisson":
            return self.rng.expovariate(self.rate)
        if self.published == 0:
            return self.rng.random() / self.rate  # random initial phase
        return 1.0 / self.rate

    def _publish_one(self) -> None:
        if not self._running:
            return
        if self.until is not None and self.sim.now >= self.until:
            self._running = False
            return
        patterns = self.system.pattern_space.sample_event_patterns(
            self.rng, self.max_event_patterns
        )
        self.system.publish(self.node_id, patterns)
        self.published += 1
        self._handle = self.sim.schedule(self._next_gap(), self._publish_one)

    def __repr__(self) -> str:  # pragma: no cover - debug aid
        return (
            f"<PublisherProcess node={self.node_id} rate={self.rate}/s "
            f"published={self.published}>"
        )


class AggregatePublisherPool:
    """All dispatchers' publishing as one pooled Poisson process.

    The superposition of N independent Poisson processes of rate ``r`` is
    a Poisson process of rate ``N·r`` whose arrivals pick their origin
    uniformly -- so one process with one RNG stream and one pending timer
    reproduces the per-node model's *statistics* with O(1) state
    regardless of N.  This is what makes 10⁵-node workloads affordable:
    the per-node layout costs a 2.5 KB ``random.Random`` plus a timer per
    dispatcher (≈ 300 MB and 100k heap entries at N = 10⁵), the pool
    costs one of each.

    Only the ``"poisson"`` model pools exactly (periodic processes do not
    superpose into a periodic process), and the per-node layout remains
    the default for byte-identity with existing baselines -- draw
    sequences differ, so this is a different (equally valid) workload,
    selected via ``SimulationConfig.workload_model = "aggregate"``.

    Presents the same ``start``/``stop``/``published`` surface as
    :class:`PublisherProcess` so the builder can treat either uniformly.
    """

    __slots__ = ("system", "rate_per_node", "rng", "max_event_patterns",
                 "until", "published", "_node_count", "_total_rate",
                 "_handle", "_running")

    def __init__(
        self,
        system: PubSubSystem,
        rate_per_node: float,
        rng: random.Random,
        max_event_patterns: int = 3,
        until: Optional[float] = None,
    ) -> None:
        if rate_per_node <= 0:
            raise ValueError(
                f"publish rate must be positive, got {rate_per_node}"
            )
        self.system = system
        self.rate_per_node = rate_per_node
        self.rng = rng
        self.max_event_patterns = max_event_patterns
        self.until = until
        self.published = 0
        self._node_count = system.node_count
        self._total_rate = rate_per_node * self._node_count
        self._handle: Optional[ScheduledEvent] = None
        self._running = False

    @property
    def sim(self) -> Simulator:
        return self.system.sim

    def start(self) -> None:
        if self._running:
            return
        self._running = True
        self._handle = self.system.sim.schedule(
            self.rng.expovariate(self._total_rate), self._publish_one
        )

    def stop(self) -> None:
        self._running = False
        if self._handle is not None:
            self._handle.cancel()
            self._handle = None

    def _publish_one(self) -> None:
        if not self._running:
            return
        sim = self.system.sim
        if self.until is not None and sim.now >= self.until:
            self._running = False
            return
        rng = self.rng
        node_id = rng.randrange(self._node_count)
        patterns = self.system.pattern_space.sample_event_patterns(
            rng, self.max_event_patterns
        )
        self.system.publish(node_id, patterns)
        self.published += 1
        self._handle = sim.schedule(
            rng.expovariate(self._total_rate), self._publish_one
        )

    def __repr__(self) -> str:  # pragma: no cover - debug aid
        return (
            f"<AggregatePublisherPool n={self._node_count} "
            f"rate={self.rate_per_node}/s/node published={self.published}>"
        )


def start_publishers(
    system: PubSubSystem,
    rate: float,
    rng_factory: Callable[[int], random.Random],
    model: str = "poisson",
    max_event_patterns: int = 3,
    until: Optional[float] = None,
) -> List[PublisherProcess]:
    """Create and start one :class:`PublisherProcess` per dispatcher.

    ``rng_factory(node_id)`` must return an independent stream per node.
    """
    publishers = []
    for node_id in range(system.node_count):
        publisher = PublisherProcess(
            system,
            node_id,
            rate,
            rng_factory(node_id),
            model=model,
            max_event_patterns=max_event_patterns,
            until=until,
        )
        publisher.start()
        publishers.append(publisher)
    return publishers

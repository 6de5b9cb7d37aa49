"""Simulation configuration: the paper's Figure 2 plus every other knob.

Figure 2 of the paper:

====================================================  ==============
number of dispatchers                                 N = 100
maximum number of patterns per subscriber             πmax = 2
publish rate                                          50 publish/s
link error rate                                       ε = 0.1
interval between topological reconfigurations         ρ = +∞
buffer size                                           β = 1500
gossip interval                                       T = 0.03 s
====================================================  ==============

plus Π = 70 patterns overall, at most 3 patterns per event, a max tree
degree of 4, 10 Mbit/s links, and a 25 s simulated run.  Parameters the
paper leaves unspecified (``p_forward``, ``p_source``, out-of-band channel
characteristics, digest and hop limits) default to the choices documented
in DESIGN.md Section 2.
"""

from __future__ import annotations

import dataclasses
from dataclasses import dataclass
from typing import Optional

from repro.faults.plan import FaultPlan
from repro.network.network import NetworkConfig
from repro.recovery.base import RecoveryConfig
from repro.recovery.degrade import DegradationConfig

__all__ = ["SimulationConfig", "COMPACT_CACHE_MIN_NODES", "COMPACT_RNG_MIN_NODES"]

#: System size from which FIFO runs use the columnar event cache and
#: bitmap delivery records (:attr:`SimulationConfig.effective_cache_layout`).
COMPACT_CACHE_MIN_NODES = 1000
#: System size from which the per-node gossip streams are splitmix64
#: generators (:attr:`SimulationConfig.effective_gossip_rng`).
COMPACT_RNG_MIN_NODES = 1000


@dataclass(frozen=True)
class SimulationConfig:
    """Every knob of one simulation run.  Immutable; derive variants with
    :meth:`replace`."""

    # ------------------------------------------------------------- system
    #: N, the number of dispatchers.
    n_dispatchers: int = 100
    #: πmax, patterns subscribed per dispatcher.
    pi_max: int = 2
    #: Π, the total number of patterns in the system.
    n_patterns: int = 70
    #: Maximum tree degree ("at most four others").
    max_degree: int = 4
    #: Overlay shape: "bushy" (breadth-filled random tree; default, matches
    #: the paper's baseline delivery), "uniform" (random recursive tree
    #: under the cap), "path", "star", "balanced", or one of the large-scale
    #: graph overlays from :mod:`repro.topology.graphs` -- "scale-free"
    #: (Barabási–Albert preferential attachment) and "small-world"
    #: (Watts–Strogatz ring rewiring), both reduced to a BFS spanning tree
    #: for the dispatching structure.
    tree_style: str = "bushy"
    #: Scale-free overlays: edges per new node (Barabási–Albert ``m``).
    graph_attach: int = 2
    #: Small-world overlays: ring neighbors per node (Watts–Strogatz ``k``,
    #: must be even) and rewiring probability ``p``.
    graph_neighbors: int = 4
    graph_rewire: float = 0.1
    #: Draw exactly πmax patterns per dispatcher (matches the paper's
    #: Nπ = N·πmax/Π formula); ``False`` draws uniformly in [1, πmax].
    subscriptions_exact: bool = True

    # ----------------------------------------------------------- workload
    #: Publish operations per second per dispatcher (50 high / 5 low load).
    publish_rate: float = 50.0
    #: "poisson" (exponential gaps) or "periodic".
    publish_model: str = "poisson"
    #: Workload generator layout: "per-node" (one PublisherProcess and RNG
    #: stream per dispatcher -- the default, preserved for byte-identity
    #: with earlier baselines) or "aggregate" (one pooled Poisson process
    #: at rate N·r drawing publisher ids from a single stream; O(1) state
    #: regardless of N, required for the 10⁵-node runs).
    workload_model: str = "per-node"
    #: At most this many patterns per event (paper footnote 5: 3).
    max_event_patterns: int = 3

    # ------------------------------------------------------------ network
    #: ε, per-link-transmission loss probability.
    error_rate: float = 0.1
    #: Link bandwidth (paper: 10 Mbit/s Ethernet).
    bandwidth_bps: float = 10_000_000.0
    #: One-way link propagation delay, seconds.
    propagation_delay: float = 0.0001
    #: Out-of-band channel latency and loss (DESIGN.md Section 2).
    oob_latency: float = 0.001
    oob_error_rate: float = 0.0

    # ---------------------------------------------------- reconfiguration
    #: ρ, seconds between link breakages; ``None`` = +∞ (no
    #: reconfiguration, the Figure 2 default).
    reconfiguration_interval: Optional[float] = None
    #: Outage duration before the replacement link appears (paper: 0.1 s).
    repair_delay: float = 0.1
    #: How subscription routes come back after a repair: "oracle"
    #: (instantaneous recomputation, modelling the completed protocol of
    #: [7] -- the default) or "protocol" (real subscription messages
    #: re-propagate hop by hop; reliable-link scenarios only).
    route_repair: str = "oracle"

    # ----------------------------------------------------------- recovery
    #: Algorithm name from :data:`repro.recovery.ALGORITHMS`.
    algorithm: str = "combined-pull"
    #: β, the event-cache capacity.
    buffer_size: int = 1500
    #: Cache eviction policy: "fifo" (the paper's), "lru", or "random"
    #: (the buffer-optimization ablation; see repro.pubsub.cache).
    cache_policy: str = "fifo"
    #: T, the gossip interval.
    gossip_interval: float = 0.03
    #: Per-neighbor gossip forwarding probability.
    p_forward: float = 0.8
    #: Combined pull: probability a round is publisher-based.
    p_source: float = 0.5
    #: Hop budget of the randomly routed variants.
    random_hop_limit: int = 10
    #: Maximum digest entries per gossip message.
    digest_limit: int = 400
    #: Lost-buffer capacity (None = unbounded) and give-up age.
    lost_capacity: Optional[int] = None
    give_up_age: Optional[float] = None
    #: Ablation knob: let push skip empty digests.
    push_skip_empty: bool = False

    # ------------------------------------------------------------- faults
    #: Declarative fault-injection plan (crashes, churn, partitions, burst
    #: loss); ``None`` (the default) injects nothing and keeps the run
    #: byte-identical to pre-fault behaviour.
    faults: Optional[FaultPlan] = None
    #: Graceful-degradation knobs for the recovery layer (per-peer request
    #: timeout, bounded backoff, suspicion list); ``None`` disables the
    #: machinery entirely.
    degradation: Optional[DegradationConfig] = None

    # ---------------------------------------------------------- execution
    #: Simulated duration, seconds (paper: 25 s).
    sim_time: float = 25.0
    #: Measurement window for aggregate stats: events published before
    #: ``measure_start`` (warm-up) or after ``measure_end`` (the tail that
    #: recovery has no time left to repair) are excluded.  ``None`` for
    #: ``measure_end`` means ``sim_time - 1.5``.
    measure_start: float = 1.0
    measure_end: Optional[float] = None
    #: Bin width of delivery-rate time series, seconds.
    bin_width: float = 0.1
    #: Master seed for all random streams.
    seed: int = 42

    # ------------------------------------------------------------------
    def __post_init__(self) -> None:
        if self.n_dispatchers < 1:
            raise ValueError("n_dispatchers must be >= 1")
        if self.pi_max < 0 or self.pi_max > self.n_patterns:
            raise ValueError(
                f"pi_max must be in [0, Π={self.n_patterns}], got {self.pi_max}"
            )
        if self.publish_rate <= 0:
            raise ValueError("publish_rate must be positive")
        if not 0.0 <= self.error_rate <= 1.0:
            raise ValueError("error_rate must be in [0, 1]")
        if self.buffer_size < 0:
            raise ValueError("buffer_size must be >= 0")
        if self.cache_policy not in ("fifo", "lru", "random"):
            raise ValueError(f"unknown cache_policy {self.cache_policy!r}")
        if self.workload_model not in ("per-node", "aggregate"):
            raise ValueError(f"unknown workload_model {self.workload_model!r}")
        if self.workload_model == "aggregate":
            if self.publish_model != "poisson":
                raise ValueError(
                    "the aggregate workload pools Poisson processes only; "
                    f"publish_model={self.publish_model!r} needs per-node"
                )
            if self.faults is not None:
                raise ValueError(
                    "fault injection stops/restarts per-node publishers; "
                    "use workload_model='per-node' with a fault plan"
                )
        if self.graph_attach < 1:
            raise ValueError("graph_attach must be >= 1")
        if self.graph_neighbors < 2 or self.graph_neighbors % 2:
            raise ValueError("graph_neighbors must be even and >= 2")
        if not 0.0 <= self.graph_rewire <= 1.0:
            raise ValueError("graph_rewire must be in [0, 1]")
        if self.route_repair not in ("oracle", "protocol"):
            raise ValueError(f"unknown route_repair {self.route_repair!r}")
        if self.gossip_interval <= 0:
            raise ValueError("gossip_interval must be positive")
        if self.sim_time <= 0:
            raise ValueError("sim_time must be positive")
        if (
            self.reconfiguration_interval is not None
            and self.reconfiguration_interval <= 0
        ):
            raise ValueError("reconfiguration_interval must be positive or None")
        if self.faults is not None:
            self.faults.validate(self.n_dispatchers)
        if not self.measure_start < self.effective_measure_end <= self.sim_time:
            raise ValueError(
                "measurement window must satisfy "
                f"measure_start < measure_end <= sim_time; got "
                f"[{self.measure_start}, {self.effective_measure_end}] "
                f"with sim_time={self.sim_time}"
            )

    # ------------------------------------------------------------------
    @property
    def effective_measure_end(self) -> float:
        if self.measure_end is not None:
            return self.measure_end
        return max(self.measure_start + 1e-9, self.sim_time - 1.5)

    @property
    def effective_cache_layout(self) -> str:
        """The event-buffer layout this run uses.

        "compact" (the columnar FIFO ring of repro.pubsub.compact) for
        FIFO runs of at least :data:`COMPACT_CACHE_MIN_NODES` dispatchers,
        "classic" (dict-indexed, every eviction policy) otherwise.  The
        compact ring's O(β) scans make it several times slower at the
        paper's β, so paper-scale runs keep the classic layout.
        """
        if (
            self.cache_policy == "fifo"
            and self.n_dispatchers >= COMPACT_CACHE_MIN_NODES
        ):
            return "compact"
        return "classic"

    @property
    def effective_gossip_rng(self) -> str:
        """The generator behind the per-node gossip streams.

        "compact" (2-word splitmix64 state, ~50 B/node; see
        repro.sim.rng.CompactRandom) from :data:`COMPACT_RNG_MIN_NODES`
        dispatchers up, "mt" (one Mersenne Twister per dispatcher) below,
        so every paper-scale run keeps its frozen draw sequences.
        """
        return "compact" if self.n_dispatchers >= COMPACT_RNG_MIN_NODES else "mt"

    @property
    def subscribers_per_pattern(self) -> float:
        """The paper's Nπ = N·πmax/Π."""
        return self.n_dispatchers * self.pi_max / self.n_patterns

    def replace(self, **overrides) -> "SimulationConfig":
        """A copy with the given fields overridden."""
        return dataclasses.replace(self, **overrides)

    # ------------------------------------------------------------------
    # Conversions to the per-layer configs
    # ------------------------------------------------------------------
    def network_config(self) -> NetworkConfig:
        return NetworkConfig(
            bandwidth_bps=self.bandwidth_bps,
            propagation_delay=self.propagation_delay,
            error_rate=self.error_rate,
            oob_latency=self.oob_latency,
            oob_error_rate=self.oob_error_rate,
        )

    def recovery_config(self) -> RecoveryConfig:
        return RecoveryConfig(
            gossip_interval=self.gossip_interval,
            p_forward=self.p_forward,
            p_source=self.p_source,
            random_hop_limit=self.random_hop_limit,
            digest_limit=self.digest_limit,
            lost_capacity=self.lost_capacity,
            give_up_age=self.give_up_age,
            push_skip_empty=self.push_skip_empty,
            degradation=self.degradation,
        )

    # ------------------------------------------------------------------
    # Workload estimates (used to scale β like the paper does)
    # ------------------------------------------------------------------
    def match_probability(self) -> float:
        """Probability a random event matches a random dispatcher's
        subscription set, averaged over event sizes 1..max_event_patterns."""
        if self.pi_max == 0:
            return 0.0
        total = 0.0
        sizes = range(1, min(self.max_event_patterns, self.n_patterns) + 1)
        for k in sizes:
            miss = 1.0
            for i in range(k):
                miss *= (self.n_patterns - self.pi_max - i) / (self.n_patterns - i)
            total += 1.0 - miss
        return total / len(sizes)

    def estimated_cache_fill_rate(self) -> float:
        """Events cached per second at one dispatcher (publisher + matched
        subscriptions), assuming near-full delivery."""
        others = (self.n_dispatchers - 1) * self.publish_rate * self.match_probability()
        return self.publish_rate + others

    def buffer_for_persistence(self, seconds: float) -> int:
        """β such that an event persists ≈ ``seconds`` in the cache -- the
        paper's rule for scaling the buffer with the system size (Fig 6)."""
        return max(50, round(seconds * self.estimated_cache_fill_rate()))

    def estimated_persistence(self) -> float:
        """Seconds an event persists in a β-sized cache under this load."""
        rate = self.estimated_cache_fill_rate()
        return self.buffer_size / rate if rate > 0 else float("inf")

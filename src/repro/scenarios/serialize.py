"""Stable JSON round-trip for configs and results.

The campaign journal (:mod:`repro.campaign.journal`) persists every
completed cell as one JSON record and must reload it *exactly*: a
journal round-trip has to preserve ``RunResult.signature()`` byte for
byte, including the conditional ``FaultStats`` element that is only
appended when the fault layer fired.  Python's ``json`` module emits
shortest-round-trip ``repr`` floats and parses them back to the same
IEEE-754 doubles, so encoding every field explicitly (no pickling, no
lossy rounding) is sufficient for exactness.

Layout choices:

* ``config_to_dict`` is :func:`dataclasses.asdict` -- the nested frozen
  dataclasses (:class:`~repro.faults.plan.FaultPlan` and friends) recurse
  into plain dicts/lists that JSON accepts directly.
* Decoding is explicit per type: ``**``-splatting each nested dict back
  into its dataclass re-runs ``__post_init__`` validation, so a corrupted
  journal record fails loudly instead of producing an impossible config.
* ``config_digest`` canonicalizes (sorted keys, tight separators) before
  hashing, so the digest identifies a cell across processes and runs.
"""

from __future__ import annotations

import dataclasses
import hashlib
import json
from typing import Any, Dict, Optional

from repro.faults.loss import GilbertElliottConfig
from repro.faults.plan import (
    ChurnProcess,
    CrashEvent,
    FaultPlan,
    PartitionEvent,
    PartitionProcess,
)
from repro.faults.stats import FaultStats
from repro.metrics.delivery import DeliveryStats
from repro.metrics.timeseries import TimeSeries
from repro.recovery.base import GossipStats
from repro.recovery.degrade import DegradationConfig
from repro.scenarios.config import SimulationConfig
from repro.scenarios.results import RunResult

__all__ = [
    "config_to_dict",
    "config_from_dict",
    "config_digest",
    "result_to_dict",
    "result_from_dict",
]


# ---------------------------------------------------------------------------
# SimulationConfig
# ---------------------------------------------------------------------------
def config_to_dict(config: SimulationConfig) -> Dict[str, Any]:
    """Encode a config (including nested fault/degradation plans)."""
    return dataclasses.asdict(config)


def _optional(decoder: Any, data: Optional[Dict[str, Any]]) -> Any:
    return None if data is None else decoder(**data)


def _fault_plan_from_dict(data: Dict[str, Any]) -> FaultPlan:
    return FaultPlan(
        crashes=tuple(CrashEvent(**crash) for crash in data.get("crashes", ())),
        # PartitionEvent.__post_init__ re-tuples the JSON-list edge.
        partitions=tuple(
            PartitionEvent(**partition) for partition in data.get("partitions", ())
        ),
        churn=_optional(ChurnProcess, data.get("churn")),
        partition_process=_optional(PartitionProcess, data.get("partition_process")),
        link_loss=_optional(GilbertElliottConfig, data.get("link_loss")),
        oob_loss=_optional(GilbertElliottConfig, data.get("oob_loss")),
    )


def config_from_dict(data: Dict[str, Any]) -> SimulationConfig:
    """Decode :func:`config_to_dict` output back into a validated config."""
    fields = dict(data)
    if fields.get("faults") is not None:
        fields["faults"] = _fault_plan_from_dict(fields["faults"])
    if fields.get("degradation") is not None:
        fields["degradation"] = DegradationConfig(**fields["degradation"])
    return SimulationConfig(**fields)


def config_digest(config: SimulationConfig) -> str:
    """Content digest identifying one campaign cell.

    Canonical JSON (sorted keys, no whitespace) hashed with SHA-256;
    stable across processes, hosts, and interpreter restarts -- unlike
    ``hash()``, which is salted per process.
    """
    canonical = json.dumps(
        config_to_dict(config), sort_keys=True, separators=(",", ":")
    )
    return hashlib.sha256(canonical.encode("utf-8")).hexdigest()


# ---------------------------------------------------------------------------
# RunResult
# ---------------------------------------------------------------------------
def result_to_dict(result: RunResult) -> Dict[str, Any]:
    """Encode every field of a :class:`RunResult`, exactly."""
    return {
        "config": config_to_dict(result.config),
        "delivery": dataclasses.asdict(result.delivery),
        "delivery_full": dataclasses.asdict(result.delivery_full),
        "series": {
            "times": result.series.times,
            "values": result.series.values,
        },
        "series_baseline": {
            "times": result.series_baseline.times,
            "values": result.series_baseline.values,
        },
        "messages": dict(result.messages),
        "gossip_per_dispatcher": result.gossip_per_dispatcher,
        "gossip_event_ratio": result.gossip_event_ratio,
        "oob_messages": result.oob_messages,
        "recovery_load_skew": result.recovery_load_skew,
        "gossip_stats": dataclasses.asdict(result.gossip_stats),
        "losses_detected": result.losses_detected,
        "losses_recovered": result.losses_recovered,
        "losses_abandoned": result.losses_abandoned,
        "receivers_per_event": result.receivers_per_event,
        "tree_diameter": result.tree_diameter,
        "tree_average_path_length": result.tree_average_path_length,
        "reconfigurations": result.reconfigurations,
        "events_published": result.events_published,
        "sim_events_processed": result.sim_events_processed,
        "wall_clock_seconds": result.wall_clock_seconds,
        "unexpected_deliveries": result.unexpected_deliveries,
        "duplicate_deliveries": result.duplicate_deliveries,
        "faults": dataclasses.asdict(result.faults),
    }


def result_from_dict(data: Dict[str, Any]) -> RunResult:
    """Decode :func:`result_to_dict` output; signature-preserving."""
    return RunResult(
        config=config_from_dict(data["config"]),
        delivery=DeliveryStats(**data["delivery"]),
        delivery_full=DeliveryStats(**data["delivery_full"]),
        series=TimeSeries(data["series"]["times"], data["series"]["values"]),
        series_baseline=TimeSeries(
            data["series_baseline"]["times"], data["series_baseline"]["values"]
        ),
        messages=dict(data["messages"]),
        gossip_per_dispatcher=data["gossip_per_dispatcher"],
        gossip_event_ratio=data["gossip_event_ratio"],
        oob_messages=data["oob_messages"],
        recovery_load_skew=data["recovery_load_skew"],
        gossip_stats=GossipStats(**data["gossip_stats"]),
        losses_detected=data["losses_detected"],
        losses_recovered=data["losses_recovered"],
        losses_abandoned=data["losses_abandoned"],
        receivers_per_event=data["receivers_per_event"],
        tree_diameter=data["tree_diameter"],
        tree_average_path_length=data["tree_average_path_length"],
        reconfigurations=data["reconfigurations"],
        events_published=data["events_published"],
        sim_events_processed=data["sim_events_processed"],
        wall_clock_seconds=data["wall_clock_seconds"],
        unexpected_deliveries=data["unexpected_deliveries"],
        duplicate_deliveries=data["duplicate_deliveries"],
        faults=FaultStats(**data["faults"]),
    )

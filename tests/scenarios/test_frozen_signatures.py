"""Frozen-digest regression grid: the PR 7 byte-identity proof.

The compact-state substrate (mask-based subscription tables, packed
loss-detector keys, interned event contents, bitmap received-id logs and
delivery records) must not change *any* simulated behaviour at existing
scales.  The digests in ``pr7_baseline_signatures.json`` were recorded at
the PR 6 baseline commit over a grid covering every recovery family,
both non-FIFO cache policies, reconfiguration, and a non-default tree
style; this test re-runs the grid and compares.

The digest hashes ``result.signature()[1:]`` -- everything *after* the
config object -- so adding new ``SimulationConfig`` fields cannot
invalidate the baselines, but any change to RNG draw order, routing,
recovery behaviour, or metrics at these scales will.

``SCALE_CELLS`` pins two runs on the large-system side of
``COMPACT_STATE_MIN_NODES`` (the bench's ``scale_free_10k`` quick shape,
N = 1000), where the gossip RNG, received-id logs and delivery records
switch representation.  ``STAR_CELLS`` pins a hub whose subscription
table holds more than 64 directions.

If a cell diverges, the fix is to find the behavioural change, not to
re-record: re-recording is only legitimate for a deliberate,
documented semantics change.
"""

from __future__ import annotations

import hashlib
import json
from pathlib import Path

import pytest

from repro.scenarios.config import SimulationConfig
from repro.scenarios.runner import run_scenario

BASELINES = json.loads(
    (Path(__file__).parent / "pr7_baseline_signatures.json").read_text()
)

COMMON = dict(
    n_dispatchers=24,
    n_patterns=24,
    pi_max=2,
    publish_rate=30.0,
    sim_time=3.0,
    measure_start=0.5,
    measure_end=2.5,
)

CELLS = {
    "combined-pull-lossy": dict(
        algorithm="combined-pull", error_rate=0.1, seed=42, buffer_size=400
    ),
    "publisher-pull-lossy": dict(
        algorithm="publisher-pull", error_rate=0.1, seed=5, buffer_size=400
    ),
    "subscriber-pull-lossy": dict(
        algorithm="subscriber-pull", error_rate=0.1, seed=6, buffer_size=400
    ),
    "push-lossy": dict(algorithm="push", error_rate=0.05, seed=7, buffer_size=400),
    "combined-pull-lru": dict(
        algorithm="combined-pull",
        error_rate=0.1,
        seed=8,
        cache_policy="lru",
        buffer_size=60,
    ),
    "combined-pull-random": dict(
        algorithm="combined-pull",
        error_rate=0.1,
        seed=9,
        cache_policy="random",
        buffer_size=60,
    ),
    "combined-pull-reconf": dict(
        algorithm="combined-pull",
        error_rate=0.05,
        seed=10,
        reconfiguration_interval=0.2,
        buffer_size=400,
    ),
    "push-uniform-tree": dict(
        algorithm="push",
        error_rate=0.1,
        seed=12,
        tree_style="uniform",
        buffer_size=400,
    ),
}


def _digest(result) -> str:
    return hashlib.sha256(repr(result.signature()[1:]).encode()).hexdigest()


def test_grid_covers_all_baselines():
    assert set(CELLS) == set(BASELINES)


@pytest.mark.parametrize("cell", sorted(CELLS))
def test_signature_matches_pr6_baseline(cell):
    result = run_scenario(SimulationConfig(**COMMON, **CELLS[cell]))
    assert _digest(result) == BASELINES[cell], (
        f"cell {cell!r} diverged from the frozen PR 6 baseline: some change "
        "altered simulated behaviour at existing scale"
    )


#: ``bench/workloads.py::scale_free_10k`` at ``quick=True``, seed 1.
SCALE_FREE_1K = dict(
    n_dispatchers=1000,
    n_patterns=70,
    pi_max=2,
    publish_rate=200.0 / 1000,
    sim_time=0.6,
    measure_start=0.1,
    measure_end=0.4,
    buffer_size=32,
    gossip_interval=0.1,
    error_rate=0.1,
    tree_style="scale-free",
    workload_model="aggregate",
    seed=1,
)

#: Frozen digests of ``SCALE_FREE_1K`` per algorithm: push reads the
#: cache through its per-pattern index, combined pull through loss keys.
SCALE_CELLS = {
    "combined-pull": (
        "2d23b1dc46f529edfdfe52bdbcb853caac102c5f35387041b5ac3364d3b2826e"
    ),
    "push": "c1f8e50832aa17e9d3fe94e0ce34125d0c316e5b9a55d67863b0a2bd46315d88",
}


@pytest.mark.parametrize("algorithm", sorted(SCALE_CELLS))
def test_scale_free_1k_signature_is_frozen(algorithm):
    config = SimulationConfig(**SCALE_FREE_1K, algorithm=algorithm)
    assert config.compact_state
    assert _digest(run_scenario(config)) == SCALE_CELLS[algorithm], (
        f"scale-free N=1000 {algorithm!r} run diverged from its frozen digest"
    )


#: A star: the hub's table holds all 80 directions (79 leaves plus
#: LOCAL), more than one 64-bit word.  The only pinned table that wide.
STAR_80 = dict(
    n_dispatchers=80,
    n_patterns=24,
    pi_max=2,
    publish_rate=10.0,
    sim_time=2.0,
    measure_start=0.5,
    measure_end=1.5,
    buffer_size=200,
    tree_style="star",
    seed=3,
)

STAR_CELLS = {
    "combined-pull": (
        "cf405bf1bf6599f7b5e878470dafef2fb94d21e4af740bff5dcd8b6f895d00e7"
    ),
    "push": "cac0b446fbb373a67793bb980f71caab9d22ffc16f297dc1b0865a5f52520b59",
}


@pytest.mark.parametrize("algorithm", sorted(STAR_CELLS))
def test_star_hub_signature_is_frozen(algorithm):
    config = SimulationConfig(**STAR_80, algorithm=algorithm)
    assert _digest(run_scenario(config)) == STAR_CELLS[algorithm], (
        f"80-node star {algorithm!r} run diverged from its frozen digest"
    )

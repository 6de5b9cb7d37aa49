"""Measure one workload in this process (the child that ``run.py`` starts).

One call of :func:`measure`:

1. builds the workload's config and does one warm-up run, a plain
   ``Simulation(cfg).run()``: the process's peak RSS right after it is
   ``peak_rss_mb``, and its signature is the one every repeat must
   reproduce;
2. times repeats of ``Simulation(cfg)`` (set-up) and of what
   ``Simulation.run()`` does -- ``start()``, the event loop with the
   collector paused, ``collect_result()`` -- together exactly
   ``run_scenario`` for ``shards=1``, until ``--repeats`` are done and,
   with ``--seconds``, until the next repeat would overrun the budget,
   which counts from the start, warm-up included;
3. checks the warm-up and every repeat (see :func:`problems`) and counts
   the failures;
4. with ``--trace``, does one more repeat under ``cProfile`` and rolls
   its self time up to layers (``layers.py``).

The event loop runs to the horizon in ``SLICES`` equal steps of
simulated time, each timed on its own.  Every repeat does the same
simulated work in each step, so ``run.py`` can take each step's fastest
time across repeats: the shared host's bursts of contention, which last
from a fraction of a second to a few seconds, then drop out of the total
instead of landing in whichever repeats they hit.  After each step, one
slice of the reference workload (``reference.py``) is timed as well;
``run.py`` reduces those slices the same way and scales the reported
times by the host speed they give, which takes out slowdowns that
outlast a run.

Set-up is far shorter than a run on the paper-scale workloads, so each
repeat also times a few extra set-ups (discarded) back to back with its
own, to give ``setup_s`` more samples.

Run as a script it prints one JSON record on its last stdout line::

    PYTHONPATH=src python bench/measure.py --workload paper_lossy --seed 1
"""

from __future__ import annotations

import argparse
import cProfile
import gc
import hashlib
import json
import resource
import sys
import time
import traceback
from pathlib import Path
from typing import Dict, List, Optional, Tuple

import repro
from repro.network.message import MessageKind
from repro.scenarios.builder import Simulation
from repro.scenarios.results import RunResult
from repro.scenarios.serialize import config_digest

from layers import LAYERS, rollup
from reference import SLICES, Reference
from workloads import build_config

__all__ = ["measure", "problems", "signature_sha256", "counts", "run_loop",
           "slice_horizons", "SLICES"]

#: Minimum timed repeats, whatever the time budget.
MIN_REPEATS = 3
#: Extra set-ups per repeat take at most this share of a repeat's time.
SETUP_SHARE = 0.1
#: ... and there are at most this many of them per repeat.
MAX_EXTRA_SETUPS = 9
#: A repeat under cProfile takes about this many times a plain one
#: (``trace.overhead`` is 2.6-3.8).
TRACE_COST = 3.5


def signature_sha256(result: RunResult) -> str:
    """SHA-256 of ``RunResult.signature()`` with the config replaced by
    its ``config_digest``, as ``benchmarks/record.py`` hashes it."""
    signature = (config_digest(result.config),) + result.signature()[1:]
    return hashlib.sha256(repr(signature).encode()).hexdigest()


def problems(result: RunResult, reference: Optional[str]) -> List[str]:
    """Why ``result`` is not a correct run (empty when it is).

    ``reference`` is the signature hash of the workload's warm-up run, a
    plain ``Simulation.run()``; every repeat of the same config must
    reproduce it.
    """
    found = []
    if result.unexpected_deliveries:
        found.append(f"{result.unexpected_deliveries} unexpected deliveries")
    if result.duplicate_deliveries:
        found.append(f"{result.duplicate_deliveries} duplicate deliveries")
    messages = result.messages
    for kind in MessageKind:
        name = kind.name.lower()
        sent = messages[f"sent_{name}"]
        settled = messages[f"delivered_{name}"] + messages[f"dropped_{name}"]
        if settled > sent:
            found.append(f"{name}: delivered + dropped = {settled} > sent = {sent}")
    if reference is not None and signature_sha256(result) != reference:
        found.append("signature differs from the warm-up run's")
    return found


def counts(result: RunResult) -> Dict[str, float]:
    """The per-layer figures of one run that do not depend on the host."""
    messages = result.messages
    kinds = [kind.name.lower() for kind in MessageKind]
    sent = sum(messages[f"sent_{k}"] for k in kinds)
    dropped = sum(messages[f"dropped_{k}"] for k in kinds)
    delivered = sum(messages[f"delivered_{k}"] for k in kinds)
    whole_run = result.delivery_full
    gossip = result.gossip_stats
    faults = result.faults
    return {
        "sim.events": result.sim_events_processed,
        "network.sent": sent,
        "network.sent_event": messages["sent_event"],
        "network.sent_gossip": messages["sent_gossip"],
        "network.sent_oob": messages["sent_oob_request"] + messages["sent_oob_event"],
        "network.sent_subscription": messages["sent_subscription"],
        "network.drop_frac": dropped / sent if sent else 0.0,
        "network.undelivered": sent - dropped - delivered,
        "pubsub.expected_pairs": whole_run.expected,
        "pubsub.delivered_pairs": whole_run.delivered,
        "pubsub.event_msgs_per_delivery": (
            messages["sent_event"] / whole_run.delivered if whole_run.delivered else 0.0
        ),
        "pubsub.delivery_rate": result.delivery_rate,
        "recovery.rounds": gossip.rounds,
        "recovery.requests_sent": gossip.requests_sent,
        "recovery.retransmissions": gossip.retransmissions_sent,
        "recovery.losses_detected": result.losses_detected,
        "recovery.recover_frac": (
            result.losses_recovered / result.losses_detected
            if result.losses_detected
            else 0.0
        ),
        "recovery.gossip_event_ratio": result.gossip_event_ratio,
        "recovery.mean_recovery_latency_s": result.delivery.mean_recovery_latency,
        "recovery.load_skew": result.recovery_load_skew,
        "topology.reconfigurations": result.reconfigurations,
        "faults.crashes": faults.crashes,
        "faults.restarts": faults.restarts,
        "faults.burst_drops": faults.burst_drops,
        "faults.down_node_drops": faults.down_node_drops,
        "faults.peer_timeouts": faults.peer_timeouts,
    }


def _peak_rss_mb() -> float:
    peak = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss
    return peak / (1024 * 1024) if sys.platform == "darwin" else peak / 1024


def slice_horizons(sim_time: float) -> List[float]:
    """The ends of the ``SLICES`` equal steps of simulated time the event
    loop is timed in (20-50 ms of host time each on the full-size
    workloads)."""
    return [sim_time * step / SLICES for step in range(1, SLICES)] + [sim_time]


def run_loop(
    simulation: Simulation, horizons: List[float], host: Optional[Reference] = None
) -> Tuple[float, List[float], List[float]]:
    """``Simulation.run()`` up to its ``collect_result()``: ``start()``,
    then the event loop with the collector paused, stopping at each of
    ``horizons`` in turn.  Events at exactly a horizon fire before it
    stops, so the steps do the same work, in the same order, as one run
    to the last horizon.  After each step, ``host`` (if given) runs one
    slice of the reference workload, timed apart.

    Returns the seconds ``start()`` took, those of each step, and those
    of each reference slice."""
    laps, host_laps = [], []
    gc.disable()
    try:
        before = time.perf_counter()
        simulation.start()
        start_s = time.perf_counter() - before
        for horizon in horizons:
            before = time.perf_counter()
            simulation.sim.run(until=horizon)
            after = time.perf_counter()
            laps.append(after - before)
            if host is not None:
                host.step()
                host_laps.append(time.perf_counter() - after)
    finally:
        gc.enable()
    return start_s, laps, host_laps


def _traced_repeat(config, package_dir: Path) -> Dict[str, object]:
    """One repeat under cProfile, with set-up, loop and collect profiled
    apart.  The loop replays ``Simulation.run`` step by step
    (:func:`run_loop`, then ``collect_result``), so the result must match
    the warm-up run's signature like every untraced repeat."""
    profiles = {phase: cProfile.Profile() for phase in ("setup", "loop", "collect")}
    spans = []
    gc.collect()
    origin = time.perf_counter()

    def span(name: str, parent: str, start: float) -> None:
        spans.append({"name": name, "parent": parent,
                      "start": start - origin, "end": time.perf_counter() - origin})

    start = time.perf_counter()
    simulation = profiles["setup"].runcall(Simulation, config)
    span("setup", "repeat", start)

    start = time.perf_counter()
    profiles["loop"].enable()
    try:
        run_loop(simulation, [config.sim_time])
    finally:
        profiles["loop"].disable()
    span("loop", "repeat", start)

    start = time.perf_counter()
    result = profiles["collect"].runcall(simulation.collect_result)
    span("collect", "repeat", start)
    spans.insert(0, {"name": "repeat", "parent": "workload", "start": 0.0,
                     "end": spans[-1]["end"]})

    self_fracs: Dict[str, Dict[str, float]] = {}
    calls = {layer: 0 for layer in LAYERS}
    for phase, profile in profiles.items():
        profile.create_stats()
        seconds, phase_calls = rollup(profile.stats, package_dir)
        total = sum(seconds.values())
        self_fracs[phase] = {
            name: value / total if total else 0.0 for name, value in seconds.items()
        }
        for layer, count in phase_calls.items():
            calls[layer] += count
    return {
        "result": result,
        "wall_s": spans[0]["end"],
        "spans": spans,
        "self_frac": self_fracs,
        "calls": calls,
    }


def measure(
    name: str,
    seed: int,
    seconds: float = 0.0,
    repeats: int = MIN_REPEATS,
    trace: bool = False,
    quick: bool = False,
) -> Dict[str, object]:
    """Measure workload ``name`` in this process; see the module docstring."""
    budget_start = time.perf_counter()
    config = build_config(name, seed, quick)
    package_dir = Path(repro.__file__).parent

    start = time.perf_counter()
    warm = Simulation(config)
    warm_setup = time.perf_counter() - start
    start = time.perf_counter()
    first = warm.run()
    run_estimate = time.perf_counter() - start
    del warm
    # Nothing else has run yet: this is the peak of one plain run.
    peak_rss_mb = _peak_rss_mb()
    reference = signature_sha256(first)
    failures = [f"warm-up: {problem}" for problem in problems(first, None)]
    extra_setups = min(
        MAX_EXTRA_SETUPS, int(SETUP_SHARE * run_estimate / max(warm_setup, 1e-6))
    )
    # The traced repeat comes out of the same budget.
    trace_cost = TRACE_COST * (warm_setup + run_estimate) if trace else 0.0
    timed_budget = seconds - trace_cost

    horizons = slice_horizons(config.sim_time)
    # One entry per good repeat: its wall seconds (set-up through
    # collect), every set-up it timed, its start, loop steps and
    # collect, and the reference slices run between the steps.
    samples: Dict[str, List] = {
        key: [] for key in ("wall_s", "setups", "start_s", "laps", "collect_s",
                            "host_laps")
    }
    timed = 0
    timed_start = time.perf_counter()
    while True:
        now = time.perf_counter()
        # Past the minimum, start a repeat only if one more of the
        # average length still fits in the budget.
        if timed >= repeats and (
            seconds <= 0
            or now - budget_start + (now - timed_start) / timed > timed_budget
        ):
            break
        timed += 1
        setups = []
        try:
            host = Reference()
            for _ in range(extra_setups):
                gc.collect()
                start = time.perf_counter()
                Simulation(config)
                setups.append(time.perf_counter() - start)
            gc.collect()
            start = time.perf_counter()
            simulation = Simulation(config)
            built = time.perf_counter()
            start_s, laps, host_laps = run_loop(simulation, horizons, host)
            looped = time.perf_counter()
            result = simulation.collect_result()
            done = time.perf_counter()
            del simulation, host
        except Exception:  # a repeat that raises is a failed attempt
            failures.append(f"repeat {timed}: {traceback.format_exc()}")
            continue
        found = problems(result, reference)
        if found:
            failures.append(f"repeat {timed}: " + "; ".join(found))
            continue
        samples["wall_s"].append(done - start)
        samples["setups"].append(setups + [built - start])
        samples["start_s"].append(start_s)
        samples["laps"].append(laps)
        samples["collect_s"].append(done - looped)
        samples["host_laps"].append(host_laps)
    # The warm-up is a whole run, checked like the repeats.
    attempted = 1 + timed

    record: Dict[str, object] = {
        "workload": name,
        "seed": seed,
        "quick": quick,
        "signature_sha256": reference,
        "samples": samples,
        "peak_rss_mb": peak_rss_mb,
        "counts": counts(first),
    }
    if trace:
        attempted += 1
        try:
            traced = _traced_repeat(config, package_dir)
        except Exception:
            failures.append(f"traced repeat: {traceback.format_exc()}")
        else:
            found = problems(traced.pop("result"), reference)
            if found:
                failures.append("traced repeat: " + "; ".join(found))
            record["trace"] = traced
    record["attempted"] = attempted
    record["failed"] = len(failures)
    record["failures"] = failures
    return record


def main(argv: Optional[List[str]] = None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True)
    parser.add_argument("--seed", type=int, default=1)
    parser.add_argument("--seconds", type=float, default=0.0)
    parser.add_argument("--repeats", type=int, default=MIN_REPEATS)
    parser.add_argument("--trace", action="store_true")
    parser.add_argument("--quick", action="store_true")
    args = parser.parse_args(argv)
    src = Path(__file__).resolve().parent.parent / "src"
    if not Path(repro.__file__).resolve().is_relative_to(src):
        print(f"error: repro was imported from {repro.__file__}, not from {src}",
              file=sys.stderr)
        return 2
    record = measure(
        args.workload, args.seed, args.seconds, args.repeats, args.trace, args.quick
    )
    print(json.dumps(record))
    return 0


if __name__ == "__main__":
    sys.exit(main())

"""End-to-end benchmark of ``run_scenario``, with per-layer attribution.

Runs each workload of ``bench/workloads.py`` in its own child process
(``bench/measure.py``), one at a time, prints every metric with its unit,
and ends with one JSON line::

    {"correct": ..., "attempted": ..., "failed": ..., "metrics": {...}}

whose metrics are the ``end_to_end`` metrics of ``BENCHMARK.json`` -- or,
with ``--trace 1``, its ``per_layer`` metrics.  When more than one
workload runs, each metric name is prefixed with ``<workload>.``.

Usage, from the repository root::

    python3 bench/run.py                                  # all, 3 repeats
    python3 bench/run.py --workload paper_lossy --seed 3 --seconds 30
    python3 bench/run.py --trace --output out.json        # + cProfile repeat
    python3 bench/run.py --quick                          # tiny sizes
"""

from __future__ import annotations

import argparse
import json
import os
import platform
import statistics
import subprocess
import sys
from pathlib import Path
from typing import Dict, List, Optional

from layers import LAYERS, UNATTRIBUTED
from reference import NOMINAL_S

BENCH = Path(__file__).resolve().parent
ROOT = BENCH.parent
SRC = ROOT / "src"

#: Per-layer metrics that depend on the host rather than on the simulated
#: work; every other per-layer metric must repeat exactly on a given seed.
HOST_DEPENDENT = {"sim.loop_s", "sim.events_per_s", "scenarios.collect_s",
                  "host.reference_s", "trace.overhead",
                  "trace.unattributed_setup_frac", "trace.unattributed_loop_frac"} | {
    f"{layer}.{phase}_self_frac" for layer in LAYERS for phase in ("setup", "loop")
}


def _stats(samples: List[float]) -> Dict[str, object]:
    q1, _, q3 = (
        statistics.quantiles(samples, n=4) if len(samples) > 1 else samples * 3
    )
    return {
        "median": statistics.median(samples),
        "min": min(samples),
        "max": max(samples),
        "q1": q1,
        "q3": q3,
        "n": len(samples),
        "samples": samples,
    }


def load_json(path: Path) -> Dict[str, object]:
    return json.loads(path.read_text())


def fastest_sum(laps: List[List[float]]) -> float:
    """A sliced task's time with each slice at the fastest any run of it
    did that slice: ``laps`` holds one list of slice times per run."""
    return sum(min(step) for step in zip(*laps))


def summarize(
    record: Dict[str, object], pins: Dict[str, object], quick: bool
) -> Dict[str, object]:
    """Turn one child record into the metrics this benchmark reports.

    Each end-to-end metric has a ``value`` -- the number reported -- and
    the stats of its raw per-repeat (``wall_s``) or per-set-up
    (``setup_s``) samples.  ``wall_s`` sums each part of a run at the
    fastest the repeats ran it: the fastest set-up, start and collect, and
    the event loop's :func:`fastest_sum`.  ``setup_s`` is that fastest
    set-up: with dozens of set-ups spread over the run it is far steadier
    than their median, which moves with the share of the run the host
    spent in slow phases.

    Every reported time is then scaled to the host's nominal speed: times
    ``reference.NOMINAL_S`` over the :func:`fastest_sum` of the reference
    slices run between the loop's steps (``host.reference_s``)."""
    name = record["workload"]
    samples = record["samples"]
    counts = record["counts"]
    end_to_end = {}
    per_layer: Dict[str, float] = {}
    if samples["wall_s"]:
        host_s = fastest_sum(samples["host_laps"])
        scale = NOMINAL_S / host_s
        setups = [seconds for repeat in samples["setups"] for seconds in repeat]
        setup_s = scale * min(setups)
        loop_s = scale * fastest_sum(samples["laps"])
        collect_s = scale * (min(samples["start_s"]) + min(samples["collect_s"]))
        rss = record["peak_rss_mb"]
        end_to_end = {
            "wall_s": {"value": setup_s + loop_s + collect_s,
                       **_stats(samples["wall_s"])},
            "setup_s": {"value": setup_s, **_stats(setups)},
            "peak_rss_mb": {"value": rss, **_stats([rss])},
        }
        per_layer["sim.loop_s"] = loop_s
        per_layer["sim.events_per_s"] = counts["sim.events"] / loop_s
        per_layer["scenarios.collect_s"] = collect_s
        per_layer["host.reference_s"] = host_s
    per_layer.update(counts)
    trace = record.get("trace")
    if trace is not None:
        for layer in LAYERS:
            per_layer[f"{layer}.setup_self_frac"] = trace["self_frac"]["setup"][layer]
            per_layer[f"{layer}.loop_self_frac"] = trace["self_frac"]["loop"][layer]
            per_layer[f"{layer}.calls"] = trace["calls"][layer]
        per_layer["trace.unattributed_setup_frac"] = trace["self_frac"]["setup"][UNATTRIBUTED]
        per_layer["trace.unattributed_loop_frac"] = trace["self_frac"]["loop"][UNATTRIBUTED]
        if samples["wall_s"]:
            untraced = end_to_end["wall_s"]["median"]
            per_layer["trace.overhead"] = trace["wall_s"] / untraced

    pinned = pins["signatures"].get(name)
    if quick or record["seed"] != 1 or pinned is None:
        signature = "unpinned"
    else:
        signature = "match" if record["signature_sha256"] == pinned else "CHANGED"
    reference = pins["paper_reference"].get(name)
    delivery = counts.get("pubsub.delivery_rate")
    return {
        "workload": name,
        "seed": record["seed"],
        "attempted": record["attempted"],
        "failed": record["failed"],
        "fail_frac": record["failed"] / record["attempted"],
        "failures": record["failures"],
        "end_to_end": end_to_end,
        "per_layer": per_layer,
        "signature_sha256": record["signature_sha256"],
        "signature": signature,
        "paper_reference": reference,
        "delivery_err_vs_paper": (
            delivery - reference["delivery_rate"]
            if reference is not None and delivery is not None
            else None
        ),
        "spans": trace["spans"] if trace is not None else [],
    }


def run_workload(name: str, args: argparse.Namespace) -> Optional[Dict[str, object]]:
    """Measure one workload in a child process; its record, or ``None``
    if the child failed."""
    command = [sys.executable, str(BENCH / "measure.py"), "--workload", name,
               "--seed", str(args.seed), "--seconds", str(args.seconds),
               "--repeats", str(args.repeats)]
    command += ["--trace"] * bool(args.trace) + ["--quick"] * args.quick
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(
        [str(SRC)] + ([env["PYTHONPATH"]] if env.get("PYTHONPATH") else [])
    )
    try:
        # subprocess.run kills the child on timeout and waits for it.
        child = subprocess.run(command, cwd=ROOT, env=env, stdout=subprocess.PIPE,
                               text=True, timeout=120 + 2 * args.seconds)
    except subprocess.TimeoutExpired:
        print(f"error: {name} did not finish in time", file=sys.stderr)
        return None
    lines = child.stdout.strip().splitlines()
    if child.returncode != 0 or not lines:
        print(f"error: {name} exited with code {child.returncode}", file=sys.stderr)
        return None
    return json.loads(lines[-1])


def report(summary: Dict[str, object], units: Dict[str, str]) -> List[str]:
    """Human-readable lines for one workload."""
    lines = [
        f"== {summary['workload']} (seed {summary['seed']}): "
        f"{summary['attempted']} repeats attempted, {summary['failed']} failed, "
        f"fail_frac {summary['fail_frac']:.3f}"
    ]
    lines += [f"   FAILED {failure}" for failure in summary["failures"]]
    for metric, stats in summary["end_to_end"].items():
        lines.append(
            f"   {metric:<34} {stats['value']:>14.6g} {units[metric]:<8}"
            f" ({stats['n']} raw samples: median {stats['median']:.6g},"
            f" min {stats['min']:.6g}, max {stats['max']:.6g})"
        )
    for metric, value in summary["per_layer"].items():
        lines.append(f"   {metric:<34} {value:>14.6g} {units[metric]}")
    lines.append(f"   signature: {summary['signature']}")
    reference = summary["paper_reference"]
    if reference is None:
        lines.append("   delivery: unvalidated (no paper reference)")
    elif summary["delivery_err_vs_paper"] is not None:
        lines.append(
            f"   delivery_err_vs_paper {summary['delivery_err_vs_paper']:+.4f} "
            f"(paper: {reference['delivery_rate']}, {reference['source']})"
        )
    return lines


def result_line(
    summaries: List[Dict[str, object]], spec: Dict[str, object], trace: bool
) -> Dict[str, object]:
    """The final JSON object of the run."""
    declared = spec["per_layer"] if trace else spec["end_to_end"]
    prefix = len(summaries) > 1
    metrics = {}
    for summary in summaries:
        values = summary["per_layer"] if trace else {
            name: stats["value"] for name, stats in summary["end_to_end"].items()
        }
        for metric in declared:
            if metric["name"] in values:
                key = f"{summary['workload']}.{metric['name']}" if prefix else metric["name"]
                metrics[key] = {"value": values[metric["name"]], "unit": metric["unit"]}
    attempted = sum(summary["attempted"] for summary in summaries)
    failed = sum(summary["failed"] for summary in summaries)
    return {
        "correct": failed == 0,
        "attempted": attempted,
        "failed": failed,
        "metrics": metrics,
    }


def main(argv: Optional[List[str]] = None) -> int:
    spec = load_json(ROOT / "BENCHMARK.json")
    pins = load_json(BENCH / "pins.json")
    names = [workload["name"] for workload in spec["workloads"]]
    units = {m["name"]: m["unit"] for m in spec["end_to_end"] + spec["per_layer"]}
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", action="append", choices=names,
                        help="workload to run (repeatable; default: all)")
    parser.add_argument("--seed", type=int, default=1)
    parser.add_argument("--seconds", type=float, default=0.0,
                        help="time budget per workload: repeat until the next "
                        "repeat would overrun it (default: just --repeats)")
    parser.add_argument("--repeats", type=int, default=3,
                        help="minimum timed repeats per workload (default 3)")
    parser.add_argument("--trace", type=int, nargs="?", const=1, default=0,
                        choices=(0, 1), help="add one cProfile repeat and report "
                        "the per-layer metrics")
    parser.add_argument("--quick", action="store_true",
                        help="tiny workload sizes (smoke test)")
    parser.add_argument("--output", type=Path, help="write every number as JSON")
    args = parser.parse_args(argv)
    if args.repeats < 1 or args.seconds < 0:
        parser.error("--repeats must be >= 1 and --seconds >= 0")

    summaries = []
    for name in args.workload or names:
        record = run_workload(name, args)
        if record is None:
            return 1
        summary = summarize(record, pins, args.quick)
        print("\n".join(report(summary, units)), flush=True)
        summaries.append(summary)
    if args.output is not None:
        document = {
            "schema": 1,
            "host": platform.node(),
            "platform": platform.platform(),
            "nproc": os.cpu_count(),
            "python": platform.python_version(),
            "seed": args.seed,
            "seconds": args.seconds,
            "repeats": args.repeats,
            "quick": args.quick,
            "trace": bool(args.trace),
            "workloads": {summary["workload"]: summary for summary in summaries},
        }
        args.output.write_text(json.dumps(document, indent=1) + "\n")
    print(json.dumps(result_line(summaries, spec, bool(args.trace))))
    return 0


if __name__ == "__main__":
    sys.exit(main())

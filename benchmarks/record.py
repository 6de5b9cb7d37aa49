"""Record a performance trajectory: ``BENCH_<date>.json`` at the repo root.

Unlike the pytest-benchmark microbenches (which compare alternatives within
one working tree), this harness produces a small, committable JSON snapshot
of the numbers that matter across PRs:

* the substrate microbenches (engine loop, event cache, subscription-table
  matching, dispatcher forwarding);
* one representative figure scenario (the Figure 3(a) combined-pull cell),
  timed end to end;
* the parallel-executor scaling of a four-algorithm sweep (skipped
  gracefully when :mod:`repro.parallel` is not importable, so the script
  can also record trees that predate the executor);
* the full-tree whole-program lint pass — the analyzer runs on every
  push, so its wall time and peak RSS are gated like any other hot path.

Usage::

    PYTHONPATH=src python benchmarks/record.py                # full record
    PYTHONPATH=src python benchmarks/record.py --quick        # CI smoke
    PYTHONPATH=src python benchmarks/record.py --label before \
        --output /tmp/before.json
    PYTHONPATH=src python benchmarks/record.py --label after \
        --baseline /tmp/before.json   # embeds before/after + speedups

Every workload below is seeded and deterministic; only the wall-clock
measurements vary between hosts.  Committed records are therefore
comparable *within* one machine's trajectory, not across machines --
``docs/PERFORMANCE.md`` explains how to read them.
"""

from __future__ import annotations

import argparse
import datetime as _datetime
import json
import os
import platform
import subprocess
import sys
import time
from pathlib import Path
from typing import Callable, Dict, List, Optional

from repro.pubsub.cache import EventCache
from repro.pubsub.event import Event, EventId
from repro.pubsub.pattern import PatternSpace
from repro.pubsub.subscription import SubscriptionTable
from repro.scenarios.builder import Simulation
from repro.scenarios.config import SimulationConfig
from repro.sim.engine import Simulator
from repro.sim.rng import RandomStreams

REPO_ROOT = Path(__file__).resolve().parent.parent

#: Algorithms used by the sweep-scaling section (the Figure 3(a) legend
#: minus the idealized comparators, keeping the record fast).
SWEEP_ALGORITHMS = ("none", "push", "subscriber-pull", "combined-pull")


def _make_events(count: int, n_patterns: int, seed: int) -> List[Event]:
    rng = RandomStreams(seed).stream("bench-events")
    space = PatternSpace(n_patterns)
    events = []
    for i in range(count):
        patterns = space.sample_event_patterns(rng)
        events.append(
            Event(
                EventId(i % 16, i + 1),
                patterns,
                {pattern: i + 1 for pattern in patterns},
                0.0,
            )
        )
    return events


def _max_rss_kb() -> Optional[int]:
    """Peak resident-set size of this process, in KB.

    ``ru_maxrss`` is a high-water mark: it only ever grows, so per-bench
    readings are monotone within one record and the *first* bench to touch
    a lot of memory dominates the rest.  Compare the same bench name
    across records (the bench order is fixed), not benches within one.
    Linux reports KB, macOS bytes; ``None`` on hosts without ``resource``.
    """
    try:
        import resource
    except ImportError:  # pragma: no cover - non-POSIX hosts
        return None
    peak = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss
    if sys.platform == "darwin":  # pragma: no cover - bytes, not KB, there
        peak //= 1024
    return int(peak)


def _time(fn: Callable[[], object], repeats: int) -> Dict[str, float]:
    """Best-of-``repeats`` wall time of ``fn`` (plus the last return value
    when it is numeric, as a sanity check that work actually happened)."""
    best = None
    value = None
    for _ in range(repeats):
        start = time.perf_counter()
        value = fn()
        elapsed = time.perf_counter() - start
        if best is None or elapsed < best:
            best = elapsed
    record: Dict[str, float] = {"seconds": round(best, 6)}
    if isinstance(value, (int, float)):
        record["work"] = value
    return record


# ----------------------------------------------------------------------
# Substrate microbenches
# ----------------------------------------------------------------------
def bench_engine_loop(quick: bool) -> Dict[str, float]:
    count = 5_000 if quick else 50_000

    def run() -> int:
        sim = Simulator()

        def noop() -> None:
            pass

        for i in range(count):
            sim.schedule(i * 1e-6, noop)
        sim.run()
        return sim.events_processed

    return _time(run, repeats=3)


def bench_cache_churn(quick: bool) -> Dict[str, float]:
    events = _make_events(1_000 if quick else 10_000, n_patterns=24, seed=11)

    def churn() -> int:
        cache = EventCache(1500)
        for event in events:
            cache.insert(event)
        hits = 0
        for event in events:
            if cache.get(event.event_id) is not None:
                hits += 1
        return hits

    return _time(churn, repeats=3)


def _populated_table(seed: int = 3) -> SubscriptionTable:
    rng = RandomStreams(seed).stream("bench-table")
    table = SubscriptionTable(70)
    for pattern in range(70):
        for direction in rng.sample(range(4), rng.randint(1, 3)):
            table.add(pattern, direction)
    return table


def bench_table_matching(quick: bool) -> Dict[str, float]:
    """Matching over event contents that repeat heavily, as they do within
    a run -- the workload the memo cache (if present) is built for."""
    rng = RandomStreams(5).stream("bench-match")
    space = PatternSpace(70)
    distinct = [space.sample_event_patterns(rng) for _ in range(200)]
    rounds = 5 if quick else 50
    table = _populated_table()

    def match_all() -> int:
        total = 0
        for _ in range(rounds):
            for patterns in distinct:
                total += len(table.matching_directions(patterns))
                if table.matches_locally(patterns):
                    total += 1
        return total

    return _time(match_all, repeats=3)


def bench_forward_event(quick: bool) -> Dict[str, float]:
    """Dispatcher._forward_event through a live overlay: the per-hop match
    + sort + per-direction send that dominates event routing."""
    config = SimulationConfig(
        n_dispatchers=20,
        n_patterns=35,
        algorithm="none",
        error_rate=0.0,
        sim_time=2.0,
        measure_start=0.1,
        measure_end=1.0,
        buffer_size=100,
        seed=9,
    )
    events = _make_events(200 if quick else 2_000, n_patterns=35, seed=13)
    count = 5 if quick else 20

    def forward() -> int:
        simulation = Simulation(config)
        dispatcher = simulation.system.dispatchers[0]
        matching = dispatcher.table.matching_directions_for
        for _ in range(count):
            for event in events:
                directions = matching(event.content_id, event.patterns)
                dispatcher._forward_event(event, None, None, directions)
        return simulation.sim.pending

    return _time(forward, repeats=3)


# ----------------------------------------------------------------------
# Representative figure scenario
# ----------------------------------------------------------------------
def _figure_config(quick: bool) -> SimulationConfig:
    from repro.scenarios.experiments import base_config

    config = base_config().replace(algorithm="combined-pull")
    if quick:
        config = config.replace(
            n_dispatchers=24,
            sim_time=2.5,
            measure_start=0.5,
            measure_end=2.0,
            buffer_size=400,
        )
    return config


def bench_figure_scenario(quick: bool) -> Dict[str, float]:
    config = _figure_config(quick)

    best = None
    result = None
    for _ in range(2 if quick else 3):  # best-of-N: host noise dominates
        start = time.perf_counter()
        result = Simulation(config).run()
        elapsed = time.perf_counter() - start
        if best is None or elapsed < best:
            best = elapsed
    return {
        "seconds": round(best, 6),
        "sim_events_processed": result.sim_events_processed,
        "events_published": result.events_published,
        "delivery_rate": round(result.delivery_rate, 6),
    }


def bench_faults_scenario(quick: bool) -> Optional[Dict[str, object]]:
    """The figure scenario again, with the full fault stack switched on
    (Poisson churn + Gilbert--Elliott burst loss + graceful degradation)
    next to a faults-disabled control run.  ``enabled_over_disabled``
    tracks the cost of the fault machinery itself; the control's
    ``disabled_seconds`` compared across records tracks the passive
    injection-hook overhead a fault-free run pays (contract: < 3%)."""
    try:
        from repro.faults import ChurnProcess, FaultPlan, GilbertElliottConfig
        from repro.recovery.degrade import DegradationConfig
    except ImportError:  # pragma: no cover - pre-fault-layer trees
        return None

    base = _figure_config(quick)
    plan = FaultPlan(
        churn=ChurnProcess(rate=1.0, mean_downtime=0.4, start=base.measure_start),
        link_loss=GilbertElliottConfig.from_epsilon(
            base.error_rate, mean_burst_length=5.0
        ),
    )
    faulted = base.replace(faults=plan, degradation=DegradationConfig())

    record: Dict[str, object] = {}
    for key, config in (("disabled", base), ("enabled", faulted)):
        best = None
        result = None
        for _ in range(2 if quick else 3):
            start = time.perf_counter()
            result = Simulation(config).run()
            elapsed = time.perf_counter() - start
            if best is None or elapsed < best:
                best = elapsed
        record[f"{key}_seconds"] = round(best, 6)
        record[f"{key}_delivery"] = round(result.delivery_rate, 6)
    # The loop leaves `result` holding the faulted run.
    record["seconds"] = record["enabled_seconds"]
    record["enabled_over_disabled"] = round(
        record["enabled_seconds"] / record["disabled_seconds"], 3
    )
    record["crashes"] = result.faults.crashes
    record["burst_drops"] = result.faults.burst_drops
    return record


# ----------------------------------------------------------------------
# Large-topology scenario
# ----------------------------------------------------------------------
#: The scale probe: combined pull on a scale-free overlay with the
#: aggregate workload model and splitmix64 gossip streams
#: (``SimulationConfig.compact_state``, on at this node count; nothing
#: else switches with N).  Parameters match docs/EXPERIMENTS.md's
#: fig_scalability sweep.  The *system-wide* publish load is held at 200
#: events/s regardless of N (the paper's scaling methodology): each event
#: costs O(N) delivery work and O(subscribers) tracking state, so a fixed
#: per-node rate would make the probe O(N^2) in both time and memory.
_LARGE_TOPOLOGY_CHILD = """\
import json, resource, sys, time
from repro.scenarios.config import SimulationConfig
from repro.scenarios.runner import run_scenario

n = int(sys.argv[1])
start = time.perf_counter()
config = SimulationConfig(
    n_dispatchers=n, n_patterns=70, pi_max=2, publish_rate=200.0 / n,
    sim_time=3.0, measure_start=0.5, measure_end=2.5, buffer_size=32,
    gossip_interval=0.1, error_rate=0.1, algorithm="combined-pull",
    tree_style="scale-free", workload_model="aggregate", seed=1,
)
result = run_scenario(config)
elapsed = time.perf_counter() - start
peak = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss
if sys.platform == "darwin":
    peak //= 1024
print(json.dumps({
    "seconds": round(elapsed, 3),
    "max_rss_kb": int(peak),
    "n_dispatchers": n,
    "delivery_rate": round(result.delivery_rate, 6),
    "events_published": result.events_published,
    "sim_events_processed": result.sim_events_processed,
}))
"""


def _run_large_topology(n_dispatchers: int) -> Optional[Dict[str, object]]:
    """Run the scale probe in a child process and return its self-report.

    A child process for two reasons: ``ru_maxrss`` is a per-process
    high-water mark, so measuring in-process would (a) read whatever
    earlier benches peaked at and (b) permanently raise the parent's mark,
    poisoning every later bench's reading.  ``None`` when the tree cannot
    run the scenario (old trees without the scale-free/aggregate knobs).
    """
    env = dict(os.environ)
    src = str(REPO_ROOT / "src")
    existing = env.get("PYTHONPATH")
    env["PYTHONPATH"] = f"{src}{os.pathsep}{existing}" if existing else src
    try:
        proc = subprocess.run(
            [sys.executable, "-c", _LARGE_TOPOLOGY_CHILD, str(n_dispatchers)],
            capture_output=True,
            text=True,
            env=env,
            check=True,
        )
    except (subprocess.CalledProcessError, OSError):
        return None
    return json.loads(proc.stdout.splitlines()[-1])


def bench_large_topology(quick: bool) -> Optional[Dict[str, object]]:
    """The 10⁵-node scenario (2·10³ in quick mode, to keep quick records
    and the gate's unit tests cheap; the CI scale job uses --scale-smoke's
    10⁴ instead).  Single run -- at this size host noise is small relative
    to the minutes of work, and best-of-N would triple a multi-minute
    record."""
    return _run_large_topology(2_000 if quick else 100_000)


def scale_smoke(time_budget_s: float, rss_budget_kb: int) -> int:
    """CI entry point: a 10⁴-node probe with hard time and memory bounds.

    Exits non-zero when the probe exceeds either budget or fails to run,
    so a regression in the compact-state substrate turns the scale-smoke
    job red rather than silently inflating.
    """
    entry = _run_large_topology(10_000)
    if entry is None:
        print("scale-smoke: probe failed to run", file=sys.stderr)
        return 1
    print(
        f"scale-smoke: n={entry['n_dispatchers']} "
        f"wall={entry['seconds']:.1f}s (budget {time_budget_s:.0f}s) "
        f"rss={entry['max_rss_kb'] / 1024:.0f}MB "
        f"(budget {rss_budget_kb / 1024:.0f}MB) "
        f"delivery={entry['delivery_rate']:.3f}",
        file=sys.stderr,
    )
    failures = []
    if entry["seconds"] > time_budget_s:
        failures.append(
            f"wall time {entry['seconds']:.1f}s > {time_budget_s:.0f}s"
        )
    if entry["max_rss_kb"] > rss_budget_kb:
        failures.append(
            f"peak RSS {entry['max_rss_kb']}KB > {rss_budget_kb}KB"
        )
    if entry["delivery_rate"] <= 0.0:
        failures.append("zero delivery -- scenario is not exercising recovery")
    if failures:
        print("scale-smoke FAIL: " + "; ".join(failures), file=sys.stderr)
        return 1
    print("scale-smoke passed", file=sys.stderr)
    return 0


# ----------------------------------------------------------------------
# Parallel sweep scaling
# ----------------------------------------------------------------------
def _sweep_config(quick: bool) -> SimulationConfig:
    return SimulationConfig(
        n_dispatchers=16 if quick else 30,
        n_patterns=24,
        sim_time=1.5 if quick else 4.0,
        measure_start=0.25,
        measure_end=1.25 if quick else 3.0,
        buffer_size=300,
        seed=21,
    )


def bench_lint_analysis(quick: bool) -> Optional[Dict[str, object]]:
    """Full-tree lint with the whole-program pass on: exactly the
    ``python -m repro.lint src benchmarks examples`` gate.

    The analyzer is part of every push (CI's ``static`` job and the
    tree-clean test gates), so its wall time is a developer-facing hot
    path in its own right — gating it here keeps the effect fixpoint
    from quietly going quadratic as the tree grows.
    """
    try:
        from repro.lint import lint_paths
        from repro.lint.config import load_config
    except ImportError:  # pragma: no cover - pre-analyzer trees
        return None

    config = load_config(REPO_ROOT / "pyproject.toml")
    paths = [REPO_ROOT / "src", REPO_ROOT / "benchmarks",
             REPO_ROOT / "examples"]

    def run() -> int:
        result = lint_paths(paths, config)
        if result.errors:
            raise RuntimeError(
                "lint errors during bench: "
                + "; ".join(e.render() for e in result.errors)
            )
        return result.files_checked

    return _time(run, repeats=1 if quick else 3)


def bench_sweep_scaling(quick: bool) -> Optional[Dict[str, object]]:
    try:
        from repro.scenarios.sweep import sweep_algorithms
    except ImportError:  # pragma: no cover - pre-executor trees
        return None
    import inspect

    if "jobs" not in inspect.signature(sweep_algorithms).parameters:
        return None  # tree predates the parallel executor

    base = _sweep_config(quick)
    # Scaling numbers are meaningless without the core count: jobs=4 on a
    # single-core host measures pool overhead, not speedup -- record the
    # count alongside the entry so readers (and the gate) can tell, and
    # skip the jobs=4 leg entirely when it could only measure overhead.
    cores = os.cpu_count() or 1
    record: Dict[str, object] = {
        "algorithms": list(SWEEP_ALGORITHMS),
        "cpu_count": cores,
    }
    try:
        from repro.parallel import get_executor

        # On hosts with fewer cores than jobs, get_executor falls back to
        # the serial executor; note which backend jobs=4 actually measured.
        record["jobs4_executor"] = type(get_executor(4)).__name__
    except ImportError:  # pragma: no cover - pre-fallback trees
        pass
    job_counts = (1,) if cores < 2 else (1, 4)
    for jobs in job_counts:
        start = time.perf_counter()
        results = sweep_algorithms(base, SWEEP_ALGORITHMS, jobs=jobs)
        elapsed = time.perf_counter() - start
        record[f"jobs{jobs}_seconds"] = round(elapsed, 6)
        record[f"jobs{jobs}_delivery"] = {
            algorithm: round(points[0].result.delivery_rate, 6)
            for algorithm, points in results.items()
        }
    if cores < 2:
        record["jobs4_skipped"] = (
            "single-core host: jobs=4 would measure pool overhead, "
            "not parallel speedup"
        )
        print(
            " (single-core host: skipping jobs=4 leg)",
            end="",
            flush=True,
            file=sys.stderr,
        )
    else:
        record["scaling"] = round(
            record["jobs1_seconds"] / record["jobs4_seconds"], 3
        )
    return record


def bench_campaign_journal(quick: bool) -> Optional[Dict[str, object]]:
    """Journaling overhead of the crash-tolerant campaign runtime.

    The same serial cell grid twice: straight ``run_scenario`` calls,
    then ``run_campaign`` journaling every cell into a fresh directory.
    Both legs execute identical simulation work, so the delta is purely
    the digest + JSON-serialize + atomic-rename cost per cell.  Contract
    (docs/CAMPAIGNS.md): ``journal_over_plain`` stays below 1.03.
    ``seconds`` carries the journaled leg so the regression gate bounds
    the sum of simulation time and journaling cost; the plain leg of the
    same grid is what ``figure_scenario`` and ``sweep_scaling`` already
    gate.
    """
    try:
        from repro.campaign import run_campaign
        from repro.scenarios.runner import run_scenario
    except ImportError:  # pragma: no cover - pre-campaign trees
        return None
    import shutil
    import tempfile

    base = _sweep_config(quick)
    configs = [base.replace(seed=seed) for seed in range(1, 3 if quick else 6)]

    def plain() -> float:
        return sum(run_scenario(config).delivery_rate for config in configs)

    def journaled() -> float:
        directory = tempfile.mkdtemp(prefix="bench-campaign-")
        try:
            outcome = run_campaign(configs, directory, jobs=1)
            return sum(
                result.delivery_rate for result in outcome.results if result
            )
        finally:
            shutil.rmtree(directory, ignore_errors=True)

    repeats = 1 if quick else 3
    plain_entry = _time(plain, repeats)
    journal_entry = _time(journaled, repeats)
    return {
        "seconds": journal_entry["seconds"],
        "plain_seconds": plain_entry["seconds"],
        "journal_over_plain": round(
            journal_entry["seconds"] / plain_entry["seconds"], 4
        ),
        "cells": len(configs),
    }


# ----------------------------------------------------------------------
# Driver
# ----------------------------------------------------------------------
BENCHES = {
    "engine_loop": bench_engine_loop,
    "cache_churn": bench_cache_churn,
    "table_matching": bench_table_matching,
    "forward_event": bench_forward_event,
    "figure_scenario": bench_figure_scenario,
    "faults_scenario": bench_faults_scenario,
    "large_topology": bench_large_topology,
    "lint_analysis": bench_lint_analysis,
    "campaign_journal": bench_campaign_journal,
}


def record(quick: bool, label: str) -> Dict[str, object]:
    benches: Dict[str, object] = {}
    for name, bench in BENCHES.items():
        print(f"  {name} ...", end="", flush=True, file=sys.stderr)
        entry = bench(quick)
        if entry is None:
            print(" skipped (layer not present)", file=sys.stderr)
            continue
        peak = _max_rss_kb()
        if peak is not None:
            # Subprocess-isolated benches (large_topology) report their own
            # child-process peak; don't overwrite it with the parent's mark.
            entry.setdefault("max_rss_kb", peak)
        benches[name] = entry
        print(f" {entry['seconds']:.3f}s", file=sys.stderr)
    print("  sweep_scaling ...", end="", flush=True, file=sys.stderr)
    scaling = bench_sweep_scaling(quick)
    if scaling is None:
        print(" skipped (no repro.parallel)", file=sys.stderr)
    else:
        peak = _max_rss_kb()
        if peak is not None:
            scaling["max_rss_kb"] = peak
        benches["sweep_scaling"] = scaling
        line = f" jobs1={scaling['jobs1_seconds']:.3f}s"
        if "jobs4_seconds" in scaling:
            line += (
                f" jobs4={scaling['jobs4_seconds']:.3f}s "
                f"({scaling['scaling']:.2f}x)"
            )
        print(line, file=sys.stderr)
    return {
        "schema": 1,
        "label": label,
        "date": _datetime.date.today().isoformat(),
        "quick": quick,
        "python": platform.python_version(),
        "platform": platform.platform(),
        # Scaling numbers are meaningless without the core count: jobs=4
        # on a single-core host measures pool overhead, not speedup.
        "cpu_count": os.cpu_count(),
        "benches": benches,
    }


#: Benches gated by ``--check``: the kernel hot paths every PR must keep.
#: ``sweep_scaling`` and the faults-overhead scenario are reported but not
#: gating (they measure pool overhead and fault-path cost, both of which
#: legitimately move when those subsystems change).
CORE_BENCHES = (
    "engine_loop",
    "forward_event",
    "figure_scenario",
    "cache_churn",
    "table_matching",
    "large_topology",
    "lint_analysis",
    "campaign_journal",
)

#: Fractional peak-RSS growth tolerated on gating benches before the gate
#: fails.  Wider than the time threshold: allocator high-water marks are
#: coarser than wall clocks (arena growth is steppy), so 5% RSS wobble is
#: common noise where 5% time wobble is not.
MEM_THRESHOLD = 0.10


def compare_records(
    baseline: Dict[str, object],
    current: Dict[str, object],
    threshold: float,
    mem_threshold: float = MEM_THRESHOLD,
) -> Dict[str, object]:
    """Compare two ``benches`` dicts; pure so the gate is unit-testable.

    Returns ``{"rows": [...], "regressions": [...]}`` where each row is
    ``(name, baseline_s, current_s, delta, gating)`` with ``delta`` the
    fractional slowdown (+0.08 = 8% slower than baseline) and
    ``regressions`` the core benches whose delta exceeds ``threshold``.
    When both sides carry ``max_rss_kb`` the row also gets a ``mem_delta``,
    and a gating bench whose peak RSS grew beyond ``mem_threshold`` joins
    ``regressions`` as ``"<name> (rss)"`` -- a memory regression fails the
    gate exactly like a time regression.  Benches present on only one side
    are skipped (records from different tree generations may not carry the
    same set).
    """
    rows: List[Dict[str, object]] = []
    regressions: List[str] = []
    for name in sorted(set(baseline) | set(current)):
        base = baseline.get(name)
        cur = current.get(name)
        if not (
            isinstance(base, dict)
            and isinstance(cur, dict)
            and isinstance(base.get("seconds"), (int, float))
            and isinstance(cur.get("seconds"), (int, float))
            and base["seconds"] > 0
        ):
            continue
        delta = cur["seconds"] / base["seconds"] - 1.0
        gating = name in CORE_BENCHES
        regressed = gating and delta > threshold
        if regressed:
            regressions.append(name)
        row = {
            "name": name,
            "baseline_seconds": round(float(base["seconds"]), 6),
            "current_seconds": round(float(cur["seconds"]), 6),
            "delta": round(delta, 4),
            "gating": gating,
            "regressed": regressed,
        }
        base_rss = base.get("max_rss_kb")
        cur_rss = cur.get("max_rss_kb")
        if (
            isinstance(base_rss, (int, float))
            and isinstance(cur_rss, (int, float))
            and base_rss > 0
        ):
            mem_delta = cur_rss / base_rss - 1.0
            mem_regressed = gating and mem_delta > mem_threshold
            if mem_regressed:
                regressions.append(f"{name} (rss)")
            row["baseline_rss_kb"] = int(base_rss)
            row["current_rss_kb"] = int(cur_rss)
            row["mem_delta"] = round(mem_delta, 4)
            row["mem_regressed"] = mem_regressed
        rows.append(row)
    return {"rows": rows, "regressions": regressions}


def format_delta_table(comparison: Dict[str, object], threshold: float) -> str:
    """Render the per-bench delta table the gate prints (and uploads)."""
    lines = [
        f"{'bench':<18} {'baseline':>10} {'current':>10} {'delta':>8}  status",
        "-" * 58,
    ]
    for row in comparison["rows"]:
        if row["regressed"]:
            status = f"REGRESSION (> {threshold:.0%})"
        elif row.get("mem_regressed"):
            status = "RSS REGRESSION"
        elif not row["gating"]:
            status = "not gating"
        else:
            status = "ok"
        if "mem_delta" in row:
            status += f"  [rss {row['mem_delta']:+.1%}]"
        lines.append(
            f"{row['name']:<18} {row['baseline_seconds']:>9.4f}s "
            f"{row['current_seconds']:>9.4f}s {row['delta']:>+7.1%}  {status}"
        )
    return "\n".join(lines)


def _gate_self_test() -> int:
    """Prove the gate logic works: a synthetic 10% slowdown must fail, a
    within-threshold wobble must pass, and the memory gate must flag a 15%
    peak-RSS growth while letting an 8% one through.  Exit 0 when all
    hold."""
    base = {name: {"seconds": 1.0} for name in CORE_BENCHES}
    slow = {name: {"seconds": 1.0} for name in CORE_BENCHES}
    slow["engine_loop"] = {"seconds": 1.10}
    flagged = compare_records(base, slow, 0.05)["regressions"]
    wobble = dict(base)
    wobble["engine_loop"] = {"seconds": 1.04}
    passed = compare_records(base, wobble, 0.05)["regressions"]
    non_gating = compare_records(
        {"sweep_scaling_proxy": {"seconds": 1.0}},
        {"sweep_scaling_proxy": {"seconds": 2.0}},
        0.05,
    )["regressions"]
    mem_base = {
        name: {"seconds": 1.0, "max_rss_kb": 100_000} for name in CORE_BENCHES
    }
    mem_grown = {
        name: {"seconds": 1.0, "max_rss_kb": 100_000} for name in CORE_BENCHES
    }
    mem_grown["large_topology"] = {"seconds": 1.0, "max_rss_kb": 115_000}
    mem_flagged = compare_records(mem_base, mem_grown, 0.05)["regressions"]
    mem_wobble = dict(mem_base)
    mem_wobble["large_topology"] = {"seconds": 1.0, "max_rss_kb": 108_000}
    mem_passed = compare_records(mem_base, mem_wobble, 0.05)["regressions"]
    ok = (
        flagged == ["engine_loop"]
        and passed == []
        and non_gating == []
        and mem_flagged == ["large_topology (rss)"]
        and mem_passed == []
    )
    print(
        "gate self-test: "
        + (
            "ok (10% slowdown flagged, 4% wobble passed, "
            "15% RSS growth flagged, 8% passed)"
            if ok
            else "FAILED"
        ),
        file=sys.stderr,
    )
    return 0 if ok else 1


def _speedups(before: Dict[str, object], after: Dict[str, object]) -> Dict[str, float]:
    speedups = {}
    for name, entry in after.items():
        base = before.get(name)
        if (
            isinstance(entry, dict)
            and isinstance(base, dict)
            and "seconds" in entry
            and "seconds" in base
            and entry["seconds"] > 0
        ):
            speedups[name] = round(base["seconds"] / entry["seconds"], 3)
    return speedups


def main(argv: Optional[List[str]] = None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument(
        "--quick", action="store_true", help="small workloads (CI smoke)"
    )
    parser.add_argument("--label", default="current", help="tag for this record")
    parser.add_argument(
        "--output",
        type=Path,
        default=None,
        help="output path (default: BENCH_<date>.json at the repo root)",
    )
    parser.add_argument(
        "--baseline",
        type=Path,
        default=None,
        help="a previous record to embed as 'before' (adds per-bench speedups)",
    )
    parser.add_argument(
        "--check",
        action="store_true",
        help="regression gate: record fresh numbers, compare against "
        "--baseline, print the delta table, exit 1 on any core-bench "
        "regression beyond --threshold",
    )
    parser.add_argument(
        "--threshold",
        type=float,
        default=0.05,
        help="fractional slowdown tolerated by --check (default 0.05 = 5%%)",
    )
    parser.add_argument(
        "--mem-threshold",
        type=float,
        default=MEM_THRESHOLD,
        help="fractional peak-RSS growth tolerated by --check on gating "
        "benches (default 0.10 = 10%%)",
    )
    parser.add_argument(
        "--self-test",
        action="store_true",
        help="verify the gate logic on synthetic data (no benches run)",
    )
    parser.add_argument(
        "--scale-smoke",
        action="store_true",
        help="run only the 10k-node scale probe with hard time/RSS budgets "
        "(CI scale-smoke job); exits 1 when a budget is exceeded",
    )
    parser.add_argument(
        "--scale-time-budget",
        type=float,
        default=120.0,
        help="--scale-smoke wall-time budget in seconds (default 120)",
    )
    parser.add_argument(
        "--scale-rss-budget-mb",
        type=float,
        default=800.0,
        help="--scale-smoke peak-RSS budget in MB (default 800)",
    )
    args = parser.parse_args(argv)

    if args.self_test:
        return _gate_self_test()

    if args.scale_smoke:
        return scale_smoke(
            args.scale_time_budget, int(args.scale_rss_budget_mb * 1024)
        )

    if args.check and args.baseline is None:
        parser.error("--check requires --baseline")

    print(f"recording ({'quick' if args.quick else 'full'}) ...", file=sys.stderr)
    current = record(args.quick, args.label)

    baseline_benches: Optional[Dict[str, object]] = None
    before_label = "before"
    before_date: Optional[str] = None
    if args.baseline is not None:
        baseline = json.loads(args.baseline.read_text())
        # A baseline may itself be a before/after document; compare against
        # its "after" side then.  Nested blocks carry their own label and
        # date (and older records without a nested date fall back to the
        # document date) so both round-trip through repeated merges.
        before = baseline.get("after", baseline)
        baseline_benches = before["benches"]
        before_label = before.get("label", "before")
        before_date = before.get("date") or baseline.get("date")

    if args.check:
        assert baseline_benches is not None
        comparison = compare_records(
            baseline_benches,
            current["benches"],
            args.threshold,
            mem_threshold=args.mem_threshold,
        )
        table = format_delta_table(comparison, args.threshold)
        print(table)
        if args.output is not None:
            args.output.write_text(
                json.dumps(
                    {
                        "schema": 1,
                        "threshold": args.threshold,
                        "mem_threshold": args.mem_threshold,
                        "baseline": str(args.baseline),
                        **comparison,
                    },
                    indent=2,
                    sort_keys=True,
                )
                + "\n"
            )
            print(f"wrote {args.output}", file=sys.stderr)
        if comparison["regressions"]:
            print(
                f"FAIL: {', '.join(comparison['regressions'])} regressed "
                f"beyond {args.threshold:.0%}",
                file=sys.stderr,
            )
            return 1
        print("gate passed", file=sys.stderr)
        return 0

    document: Dict[str, object] = current
    if baseline_benches is not None:
        document = {
            "schema": 1,
            "date": current["date"],
            "quick": current["quick"],
            "python": current["python"],
            "platform": current["platform"],
            "cpu_count": current["cpu_count"],
            "before": {
                "label": before_label,
                "date": before_date,
                "benches": baseline_benches,
            },
            "after": {
                "label": current["label"],
                "date": current["date"],
                "benches": current["benches"],
            },
            "speedup": _speedups(baseline_benches, current["benches"]),
        }

    output = args.output
    if output is None:
        output = REPO_ROOT / f"BENCH_{current['date']}.json"
    output.write_text(json.dumps(document, indent=2, sort_keys=True) + "\n")
    print(f"wrote {output}", file=sys.stderr)
    return 0


if __name__ == "__main__":
    sys.exit(main())

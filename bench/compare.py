"""Compare benchmark records written by ``bench/run.py --output``.

Usage::

    python3 bench/compare.py parent.json change.json
    python3 bench/compare.py parent_runs/ change_runs/

Each side is one record or a directory of records (``*.json``, taken in
name order, so ``parent_runs/03.json`` pairs with ``change_runs/03.json``).
For every workload and end-to-end metric it prints the median of each
side's reported values, the change's delta against the metric's bound
from ``BENCHMARK.json``, and a verdict:

* ``unresolved`` -- a side's spread exceeds the bound, so the delta cannot
  be told from noise, and not every change run reads better than every
  parent run.  The spread is the interquartile range of the side's
  values over their median; with a single record it is the
  interquartile range of that run's raw samples over their median
  instead (wider than the spread of the value, so cautious);
* ``regressed`` / ``improved`` -- worse / better by more than the bound;
* ``ok`` -- within the bound.

With two or more paired runs a side it also prints how many pairs the
change won.  Last, it flags every per-layer count and signature that
differs between paired records of the same seed: those repeat exactly,
so a difference means the simulated work changed.  Exits 1 if any row
regressed.
"""

from __future__ import annotations

import argparse
import json
import statistics
import sys
from pathlib import Path
from typing import Dict, List, Optional

from run import HOST_DEPENDENT, ROOT

__all__ = ["load_side", "verdict", "compare"]


def load_side(path: Path) -> List[Dict[str, object]]:
    """The records of one side: a file, or every ``*.json`` in a directory."""
    files = sorted(path.glob("*.json")) if path.is_dir() else [path]
    return [json.loads(file.read_text()) for file in files]


def _spread(runs: List[Dict[str, float]]) -> float:
    if len(runs) > 1:
        values = [run["value"] for run in runs]
        quartiles = statistics.quantiles(values, n=4)
        low, high, middle = quartiles[0], quartiles[2], statistics.median(values)
    else:
        low, high, middle = runs[0]["q1"], runs[0]["q3"], runs[0]["median"]
    return (high - low) / middle if middle else 0.0


def verdict(a: List[Dict[str, float]], b: List[Dict[str, float]], better: str,
            bound: float) -> Dict[str, object]:
    """Judge the change's runs ``b`` of one metric against the parent's ``a``.

    Each run is a metric's entry from one record: its ``value`` and the
    ``median``, ``q1`` and ``q3`` of its raw samples."""
    sign = 1.0 if better == "lower" else -1.0
    median_a = statistics.median(run["value"] for run in a)
    median_b = statistics.median(run["value"] for run in b)
    delta = median_b / median_a - 1.0 if median_a else 0.0
    worse = sign * delta
    all_better = max(sign * run["value"] for run in b) < min(
        sign * run["value"] for run in a
    )
    if max(_spread(a), _spread(b)) > bound and not all_better:
        outcome = "unresolved"
    elif worse > bound:
        outcome = "regressed"
    elif worse < -bound:
        outcome = "improved"
    else:
        outcome = "ok"
    row = {"a": median_a, "b": median_b, "delta": delta, "verdict": outcome}
    if len(a) == len(b) > 1:
        row["wins"] = sum(
            sign * rb["value"] < sign * ra["value"] for ra, rb in zip(a, b)
        )
        row["pairs"] = len(a)
    return row


def compare(a: List[Dict[str, object]], b: List[Dict[str, object]],
            spec: Dict[str, object]) -> Dict[str, List]:
    """Verdict rows for every workload and end-to-end metric both sides
    hold, and the per-layer counts and signatures that differ."""
    rows, flags = [], []
    for name in a[0]["workloads"]:
        if not all(name in record["workloads"] for record in a + b):
            continue
        side_a = [record["workloads"][name] for record in a]
        side_b = [record["workloads"][name] for record in b]
        for metric in spec["end_to_end"]:
            key = metric["name"]
            runs_a = [w["end_to_end"][key] for w in side_a if key in w["end_to_end"]]
            runs_b = [w["end_to_end"][key] for w in side_b if key in w["end_to_end"]]
            if runs_a and runs_b:
                rows.append({"workload": name, "metric": key, "bound": metric["bound"],
                             **verdict(runs_a, runs_b, metric["better"],
                                       metric["bound"])})
        for wa, wb in zip(side_a, side_b):
            if wa["seed"] != wb["seed"]:
                continue
            if wa["signature_sha256"] != wb["signature_sha256"]:
                flags.append({"workload": name, "seed": wa["seed"],
                              "what": "signature_sha256",
                              "a": wa["signature_sha256"], "b": wb["signature_sha256"]})
            for key, value in wa["per_layer"].items():
                if key not in HOST_DEPENDENT and wb["per_layer"].get(key, value) != value:
                    flags.append({"workload": name, "seed": wa["seed"], "what": key,
                                  "a": value, "b": wb["per_layer"][key]})
    return {"rows": rows, "flags": flags}


def main(argv: Optional[List[str]] = None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("parent", type=Path, help="record or directory of records")
    parser.add_argument("change", type=Path, help="record or directory of records")
    args = parser.parse_args(argv)
    spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    result = compare(load_side(args.parent), load_side(args.change), spec)
    print(f"{'workload':<16} {'metric':<12} {'parent':>12} {'change':>12} "
          f"{'delta':>8} {'bound':>6}  verdict")
    for row in result["rows"]:
        wins = f"  (won {row['wins']}/{row['pairs']})" if "wins" in row else ""
        print(f"{row['workload']:<16} {row['metric']:<12} {row['a']:>12.6g} "
              f"{row['b']:>12.6g} {row['delta']:>+8.2%} {row['bound']:>6.0%}  "
              f"{row['verdict']}{wins}")
    for flag in result["flags"]:
        print(f"DIFFERS {flag['workload']} seed {flag['seed']} {flag['what']}: "
              f"{flag['a']} -> {flag['b']}")
    return 1 if any(row["verdict"] == "regressed" for row in result["rows"]) else 0


if __name__ == "__main__":
    sys.exit(main())

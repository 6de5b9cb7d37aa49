"""Tests of the benchmark itself; run them with ``pytest bench``."""

from __future__ import annotations

import dataclasses
import json
import subprocess
import sys

import pytest

import compare
import measure
import run
from layers import LAYERS, UNATTRIBUTED, rollup
from reference import NOMINAL_S, Reference
from repro.scenarios.builder import Simulation
from workloads import WORKLOADS

SPEC = json.loads((run.ROOT / "BENCHMARK.json").read_text())


@pytest.fixture(scope="module")
def quick_document(tmp_path_factory):
    """One ``--quick --trace`` run of every workload through the CLI."""
    output = tmp_path_factory.mktemp("bench") / "quick.json"
    child = subprocess.run(
        [sys.executable, str(run.BENCH / "run.py"), "--quick", "--trace", "1",
         "--output", str(output)],
        cwd=run.ROOT, stdout=subprocess.PIPE, text=True, timeout=300,
    )
    assert child.returncode == 0
    return json.loads(child.stdout.strip().splitlines()[-1]), json.loads(
        output.read_text()
    )


def test_spec_names_the_code_workloads():
    assert [w["name"] for w in SPEC["workloads"]] == list(WORKLOADS)


def test_quick_runs_every_workload(quick_document):
    line, document = quick_document
    assert line["correct"] and line["failed"] == 0
    assert set(document["workloads"]) == set(WORKLOADS)
    for name, summary in document["workloads"].items():
        assert summary["fail_frac"] == 0.0
        for metric in SPEC["per_layer"]:
            assert line["metrics"][f"{name}.{metric['name']}"]["unit"] == metric["unit"]
        without_trace = run.result_line([summary], SPEC, trace=False)
        assert set(without_trace["metrics"]) == {m["name"] for m in SPEC["end_to_end"]}
        assert all(m["value"] > 0 for m in without_trace["metrics"].values())


def test_layer_rollup_of_a_real_trace_sums_to_one(quick_document):
    _, document = quick_document
    for summary in document["workloads"].values():
        per_layer = summary["per_layer"]
        for phase in ("setup", "loop"):
            named = sum(per_layer[f"{layer}.{phase}_self_frac"] for layer in LAYERS)
            total = named + per_layer[f"trace.unattributed_{phase}_frac"]
            assert total == pytest.approx(1.0, abs=0.005)
            assert named >= 0.95


def test_rollup_charges_builtins_and_stdlib_to_callers(tmp_path):
    package = tmp_path / "repro"
    engine = (str(package / "sim" / "engine.py"), 1, "run")
    dispatch = (str(package / "pubsub" / "dispatcher.py"), 1, "forward")
    heappush = ("~", 0, "<built-in method _heapq.heappush>")
    sample = ("/usr/lib/python3/random.py", 1, "sample")
    getrandbits = ("~", 0, "<method 'getrandbits' of '_random.Random' objects>")
    orphan = ("~", 0, "<method 'disable' of '_lsprof.Profiler' objects>")
    stats = {
        engine: (1, 1, 2.0, 9.0, {}),
        dispatch: (4, 4, 1.0, 6.0, {engine: (4, 4, 1.0, 6.0)}),
        # heappush: 1 s of its self time is spent under engine, 2 s under
        # dispatch.
        heappush: (3, 3, 3.0, 3.0, {engine: (1, 1, 1.0, 1.0),
                                    dispatch: (2, 2, 2.0, 2.0)}),
        sample: (1, 1, 1.0, 1.5, {dispatch: (1, 1, 1.0, 1.5)}),
        getrandbits: (5, 5, 0.5, 0.5, {sample: (5, 5, 0.5, 0.5)}),
        orphan: (1, 1, 0.25, 0.25, {}),
    }
    seconds, calls = rollup(stats, package)
    assert seconds["sim"] == pytest.approx(2.0 + 1.0)
    assert seconds["pubsub"] == pytest.approx(1.0 + 2.0 + 1.0 + 0.5)
    assert seconds[UNATTRIBUTED] == pytest.approx(0.25)
    assert sum(seconds.values()) == pytest.approx(sum(s[2] for s in stats.values()))
    assert calls["sim"] == 1 and calls["pubsub"] == 4 and calls["network"] == 0


def test_doctored_duplicate_delivery_raises_fail_frac(monkeypatch):
    class Doctored(Simulation):
        def collect_result(self):
            return dataclasses.replace(super().collect_result(), duplicate_deliveries=1)

    monkeypatch.setattr(measure, "Simulation", Doctored)
    record = measure.measure("paper_lossy", 1, quick=True)
    summary = run.summarize(record, {"signatures": {}, "paper_reference": {}}, True)
    # The warm-up run and every timed repeat fail.
    assert summary["failed"] == summary["attempted"] == measure.MIN_REPEATS + 1
    assert summary["fail_frac"] == 1.0
    assert summary["failures"][0] == "warm-up: 1 duplicate deliveries"


def test_problems_checks_conservation_and_signature():
    result = Simulation(WORKLOADS["paper_lossy"](1, True)).run()
    reference = measure.signature_sha256(result)
    assert measure.problems(result, reference) == []
    messages = dict(result.messages, delivered_event=result.messages["sent_event"] + 1)
    found = measure.problems(dataclasses.replace(result, messages=messages), reference)
    assert any("event: delivered + dropped" in p for p in found)
    assert measure.problems(result, "0" * 64) == [
        "signature differs from the warm-up run's"
    ]


@pytest.mark.parametrize("name", list(WORKLOADS))
def test_sliced_loop_beside_the_reference_reproduces_a_plain_run(name):
    config = WORKLOADS[name](1, True)
    plain = Simulation(config).run()
    simulation = Simulation(config)
    start_s, laps, host_laps = measure.run_loop(
        simulation, measure.slice_horizons(config.sim_time), Reference()
    )
    assert len(laps) == len(host_laps) == measure.SLICES and start_s >= 0
    sliced = simulation.collect_result()
    assert measure.signature_sha256(sliced) == measure.signature_sha256(plain)
    assert sliced.sim_events_processed == plain.sim_events_processed


def test_fastest_sum_takes_each_slice_at_its_fastest():
    assert run.fastest_sum([[1.0, 5.0, 2.0], [3.0, 1.0, 2.5]]) == 1.0 + 1.0 + 2.0


def test_reported_times_are_the_fastest_parts_at_nominal_speed():
    record = measure.measure("paper_lossless", 1, quick=True)
    samples = record["samples"]
    assert len(samples["laps"]) == len(samples["host_laps"]) == measure.MIN_REPEATS
    summary = run.summarize(record, {"signatures": {}, "paper_reference": {}}, True)
    host_s = run.fastest_sum(samples["host_laps"])
    assert summary["per_layer"]["host.reference_s"] == host_s
    fastest_setup = min(min(repeat) for repeat in samples["setups"])
    assert summary["end_to_end"]["wall_s"]["value"] == pytest.approx(
        NOMINAL_S / host_s * (fastest_setup + min(samples["start_s"])
                              + run.fastest_sum(samples["laps"])
                              + min(samples["collect_s"]))
    )
    assert summary["end_to_end"]["setup_s"]["value"] == pytest.approx(
        NOMINAL_S / host_s * fastest_setup
    )
    # A host twice as slow throughout reads the same.
    slow = json.loads(json.dumps(record))
    for key in ("setups", "start_s", "laps", "collect_s", "host_laps"):
        slow["samples"][key] = json.loads(
            json.dumps(samples[key]), parse_float=lambda text: 2 * float(text)
        )
    slowed = run.summarize(slow, {"signatures": {}, "paper_reference": {}}, True)
    for metric in ("wall_s", "setup_s"):
        assert slowed["end_to_end"][metric]["value"] == pytest.approx(
            summary["end_to_end"][metric]["value"]
        )


def test_traced_repeat_reproduces_the_untraced_signature():
    record = measure.measure("churn_reconfig", 1, trace=True, quick=True)
    # The warm-up, the timed repeats and the traced one.
    assert record["attempted"] == measure.MIN_REPEATS + 2
    assert record["failed"] == 0, record["failures"]
    assert [span["name"] for span in record["trace"]["spans"]] == [
        "repeat", "setup", "loop", "collect"
    ]


def _stats(value, q1=None, q3=None):
    return {"value": value, "median": value, "q1": value if q1 is None else q1,
            "q3": value if q3 is None else q3}


def _record(wall, signature="abc", events=100):
    return {"workloads": {"w": {
        "seed": 1,
        "end_to_end": {"wall_s": wall},
        "per_layer": {"sim.events": events, "sim.loop_s": wall["value"]},
        "signature_sha256": signature,
    }}}


WALL_SPEC = {"end_to_end": [{"name": "wall_s", "better": "lower", "bound": 0.05}]}


@pytest.mark.parametrize("change, expected", [
    (_stats(1.02), "ok"),
    (_stats(1.20), "regressed"),
    (_stats(0.80), "improved"),
    (_stats(1.20, q1=0.9, q3=1.5), "unresolved"),
    # A wide spread does not hide a change that reads better on every run.
    (_stats(0.80, q1=0.5, q3=1.1), "improved"),
])
def test_compare_verdicts(change, expected):
    result = compare.compare([_record(_stats(1.0))], [_record(change)], WALL_SPEC)
    assert [row["verdict"] for row in result["rows"]] == [expected]
    assert result["flags"] == []


def test_compare_pairs_runs_and_uses_their_spread():
    parent = [_record(_stats(m)) for m in (1.00, 1.01, 0.99, 1.00)]
    change = [_record(_stats(m)) for m in (0.90, 0.91, 1.20, 0.89)]
    (row,) = compare.compare(parent, change, WALL_SPEC)["rows"]
    assert (row["wins"], row["pairs"]) == (3, 4)
    # The change's run values spread far wider than 5%.
    assert row["verdict"] == "unresolved"


def test_compare_flags_changed_counts_and_signatures():
    result = compare.compare(
        [_record(_stats(1.0))],
        [_record(_stats(2.0), signature="def", events=101)],
        {"end_to_end": []},
    )
    assert {flag["what"] for flag in result["flags"]} == {"signature_sha256", "sim.events"}


def test_stripped_checkout_fails_without_a_result(tmp_path):
    """With only BENCHMARK.json and bench/ present, the run must fail."""
    (tmp_path / "bench").mkdir()
    for path in run.BENCH.iterdir():
        if path.is_file():
            (tmp_path / "bench" / path.name).write_bytes(path.read_bytes())
    (tmp_path / "BENCHMARK.json").write_bytes((run.ROOT / "BENCHMARK.json").read_bytes())
    child = subprocess.run(
        [sys.executable, "bench/run.py", "--workload", "paper_lossy", "--quick"],
        cwd=tmp_path, stdout=subprocess.PIPE, stderr=subprocess.DEVNULL,
        text=True, timeout=120,
    )
    assert child.returncode != 0
    assert '"correct"' not in child.stdout

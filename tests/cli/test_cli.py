"""Tests for the command-line interface (fast, tiny scenarios)."""

from __future__ import annotations

import dataclasses

import pytest

import repro.cli
from repro.cli import build_parser, main

FAST_ARGS = [
    "--n",
    "10",
    "--patterns",
    "8",
    "--publish-rate",
    "10",
    "--sim-time",
    "2.0",
    "--buffer-size",
    "50",
]


class TestParser:
    def test_requires_command(self):
        with pytest.raises(SystemExit):
            build_parser().parse_args([])

    def test_rejects_unknown_algorithm(self):
        with pytest.raises(SystemExit):
            build_parser().parse_args(["run", "--algorithm", "wishful"])

    def test_figure_choices(self):
        args = build_parser().parse_args(["figure", "3a"])
        assert args.which == "3a"
        with pytest.raises(SystemExit):
            build_parser().parse_args(["figure", "99"])


class TestCommands:
    def test_list_algorithms(self, capsys):
        assert main(["list-algorithms"]) == 0
        out = capsys.readouterr().out
        for name in ("push", "combined-pull", "none", "subscriber-pull"):
            assert name in out

    def test_run_prints_summary(self, capsys):
        code = main(["run", "--algorithm", "none", "--error-rate", "0.0"] + FAST_ARGS)
        assert code == 0
        out = capsys.readouterr().out
        assert "delivery rate" in out
        assert "1.0000" in out  # reliable network: perfect delivery

    def test_short_run_measures_over_published_events(self, capsys, monkeypatch):
        """At 2 s the default window (a 1.5 s tail dropped) would be
        empty; the printed rate must come from a window holding events."""
        results = []
        run_scenario = repro.cli.run_scenario

        def recording(config):
            results.append(run_scenario(config))
            return results[-1]

        monkeypatch.setattr(repro.cli, "run_scenario", recording)
        code = main(
            ["run", "--n", "12", "--patterns", "10", "--sim-time", "2",
             "--error-rate", "0.5", "--algorithm", "none",
             "--publish-rate", "10"]
        )
        assert code == 0
        (result,) = results
        assert result.delivery.events > 0
        assert result.delivery_rate < 1.0  # half the transmissions are lost
        (line,) = [
            line for line in capsys.readouterr().out.splitlines()
            if line.strip().startswith("delivery rate")
        ]
        assert line.split()[-1] == f"{result.delivery_rate:.4f}"

    def test_run_with_reconfiguration(self, capsys):
        code = main(
            ["run", "--algorithm", "none", "--error-rate", "0.0",
             "--reconfiguration-interval", "0.5"] + FAST_ARGS
        )
        assert code == 0
        out = capsys.readouterr().out
        assert "reconfigurations" in out

    def test_compare_prints_all_algorithms(self, capsys):
        code = main(["compare", "--error-rate", "0.1"] + FAST_ARGS)
        assert code == 0
        out = capsys.readouterr().out
        for name in ("none", "push", "combined-pull", "publisher-pull"):
            assert name in out

    def test_faults_passes_sanity_check(self, capsys):
        code = main(["faults", "--injector", "burst-loss"] + FAST_ARGS)
        assert code == 0
        captured = capsys.readouterr()
        assert "burst transitions / drops" in captured.out
        assert "SANITY VIOLATION" not in captured.err

    def test_faults_exits_1_on_unconserved_kind(self, capsys, monkeypatch):
        """A kind with more deliveries plus drops than sends fails the
        command, even with no unexpected or duplicate delivery."""
        run_scenario = repro.cli.run_scenario

        def doctored(config):
            result = run_scenario(config)
            messages = dict(result.messages)
            messages["delivered_gossip"] = messages["sent_gossip"] + 1
            return dataclasses.replace(result, messages=messages)

        monkeypatch.setattr(repro.cli, "run_scenario", doctored)
        code = main(["faults", "--injector", "burst-loss"] + FAST_ARGS)
        assert code == 1
        err = capsys.readouterr().err
        assert "SANITY VIOLATION: gossip: delivered + dropped" in err

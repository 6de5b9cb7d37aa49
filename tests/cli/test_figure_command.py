"""Tests for the CLI figure command (experiments monkeypatched tiny)."""

from __future__ import annotations

import pytest

from repro import cli
from repro.scenarios.experiments import ExperimentResult


seen_jobs = []


def fake_result(jobs, campaign_dir=None):
    seen_jobs.append(jobs)
    return ExperimentResult(
        "FigFake",
        "a fake figure",
        "x",
        [1, 2, 3],
        curves={"line": [0.1, 0.2, 0.3]},
    )


class TestFigureCommand:
    @pytest.fixture(autouse=True)
    def patch_figures(self, monkeypatch):
        monkeypatch.setitem(cli._FIGURES, "3a", fake_result)
        seen_jobs.clear()

    def test_prints_table(self, capsys):
        assert cli.main(["figure", "3a"]) == 0
        out = capsys.readouterr().out
        assert "FigFake" in out
        assert "0.200" in out
        assert seen_jobs == [1]

    def test_jobs_flag_is_forwarded(self, capsys):
        assert cli.main(["figure", "3a", "--jobs", "4"]) == 0
        assert seen_jobs == [4]

    def test_chart_flag_adds_chart(self, capsys):
        assert cli.main(["figure", "3a", "--chart"]) == 0
        out = capsys.readouterr().out
        assert "o line" in out

    def test_every_figure_key_is_wired(self):
        for key in ("3a", "3b", "4-buffer", "4-interval", "5", "6", "7", "8", "9a", "9b", "10"):
            assert key in cli._FIGURES

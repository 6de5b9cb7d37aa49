"""Tests for the experiment result helpers that reports are built from."""

from __future__ import annotations

from repro.scenarios.experiments import ExperimentResult


def sample_result():
    return ExperimentResult(
        "FigX",
        "demo experiment",
        "x",
        [1, 2],
        curves={"line": [0.5, 0.6]},
    )


class TestExperimentReport:
    def test_experiment_result_helpers(self):
        result = sample_result()
        assert result.curve("line") == [0.5, 0.6]
        assert result.final("line") == 0.6
        table = result.to_table()
        assert "FigX" in table
        chart = result.to_chart()
        assert "o line" in chart

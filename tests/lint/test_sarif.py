"""SARIF 2.1.0 output: structure, rule metadata, and CLI round-trip."""

from __future__ import annotations

import json
import pathlib

from repro.lint.cli import main
from repro.lint.findings import Finding, LintError
from repro.lint.report import render_sarif

FIXTURES = pathlib.Path(__file__).parent / "fixtures"


def _run(findings, errors=(), files=1):
    return json.loads(render_sarif(list(findings), list(errors), files))["runs"][0]


class TestRenderSarif:
    def test_minimal_clean_run(self):
        run = _run([])
        assert run["results"] == []
        assert run["invocations"][0]["executionSuccessful"] is True

    def test_finding_becomes_result_with_location(self):
        finding = Finding(
            path="src/repro/x.py", line=7, col=4, code="REP101",
            message="message mutated after send",
        )
        run = _run([finding])
        (result,) = run["results"]
        assert result["ruleId"] == "REP101"
        assert result["level"] == "error"
        location = result["locations"][0]["physicalLocation"]
        assert location["artifactLocation"]["uri"] == "src/repro/x.py"
        # SARIF columns are 1-based; Finding columns are 0-based.
        assert location["region"] == {"startLine": 7, "startColumn": 5}

    def test_rule_index_points_into_catalogue(self):
        finding = Finding(
            path="a.py", line=1, col=0, code="REP003", message="m"
        )
        run = _run([finding])
        rules = run["tool"]["driver"]["rules"]
        index = run["results"][0]["ruleIndex"]
        assert rules[index]["id"] == "REP003"

    def test_catalogue_covers_both_rule_families(self):
        run = _run([])
        ids = {rule["id"] for rule in run["tool"]["driver"]["rules"]}
        assert {"REP002", "REP007", "REP101", "REP306"} <= ids

    def test_errors_become_notifications(self):
        error = LintError(path="bad.py", message="syntax error on line 3")
        run = _run([], [error])
        invocation = run["invocations"][0]
        assert invocation["executionSuccessful"] is False
        (note,) = invocation["toolExecutionNotifications"]
        assert "bad.py" in note["message"]["text"]

    def test_schema_envelope(self):
        payload = json.loads(render_sarif([], [], 0))
        assert payload["version"] == "2.1.0"
        assert "sarif-schema-2.1.0" in payload["$schema"]


class TestCliSarif:
    def test_cli_emits_parseable_sarif_and_exit_1(self, capsys):
        exit_code = main(
            [
                "--isolated",
                "--format=sarif",
                str(FIXTURES / "analysis" / "rep101_bad.py"),
            ]
        )
        assert exit_code == 1
        payload = json.loads(capsys.readouterr().out)
        results = payload["runs"][0]["results"]
        assert {result["ruleId"] for result in results} == {"REP101"}

    def test_cli_clean_sarif_exit_0(self, capsys):
        exit_code = main(
            [
                "--isolated",
                "--format=sarif",
                str(FIXTURES / "analysis" / "rep101_good.py"),
            ]
        )
        assert exit_code == 0
        payload = json.loads(capsys.readouterr().out)
        assert payload["runs"][0]["results"] == []

"""CLI surface of the whole-program analysis: flags, selection, errors."""

from __future__ import annotations

import json
import pathlib

import pytest

from repro.lint.cli import main

FIXTURES = pathlib.Path(__file__).parents[1] / "fixtures" / "analysis"


class TestFlags:
    def test_analysis_flag_runs_rep1xx(self, capsys):
        exit_code = main(
            [
                "--isolated",
                "--analysis",
                "--format=json",
                str(FIXTURES / "rep101_bad.py"),
            ]
        )
        assert exit_code == 1
        payload = json.loads(capsys.readouterr().out)
        assert set(payload["counts"]) == {"REP101"}

    def test_no_analysis_suppresses_rep1xx(self, capsys):
        exit_code = main(
            ["--isolated", "--no-analysis", str(FIXTURES / "rep101_bad.py")]
        )
        assert exit_code == 0

    def test_analysis_and_no_analysis_conflict(self, capsys):
        with pytest.raises(SystemExit) as excinfo:
            main(["--analysis", "--no-analysis", str(FIXTURES)])
        assert excinfo.value.code == 2

    def test_rules_is_an_alias_for_select(self, capsys):
        exit_code = main(
            [
                "--isolated",
                "--rules=REP101",
                "--format=json",
                str(FIXTURES / "rep101_bad.py"),
            ]
        )
        assert exit_code == 1
        payload = json.loads(capsys.readouterr().out)
        assert set(payload["counts"]) == {"REP101"}

    def test_selecting_rep1xx_enables_analysis_implicitly(self, capsys):
        exit_code = main(
            [
                "--isolated",
                "--select=REP104",
                "--format=json",
                str(FIXTURES / "rep104_bad.py"),
            ]
        )
        assert exit_code == 1
        payload = json.loads(capsys.readouterr().out)
        assert set(payload["counts"]) == {"REP104"}

    def test_unknown_code_error_lists_analysis_codes(self, capsys):
        with pytest.raises(SystemExit):
            main(["--select=REP999", str(FIXTURES)])
        err = capsys.readouterr().err
        assert "REP101" in err and "REP306" in err

    def test_list_rules_includes_analysis_family(self, capsys):
        assert main(["--list-rules"]) == 0
        out = capsys.readouterr().out
        for code in ("REP101", "REP104", "REP200", "REP306"):
            assert code in out

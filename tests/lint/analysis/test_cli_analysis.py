"""CLI surface of the whole-program rules: one mode, selection, errors."""

from __future__ import annotations

import json
import pathlib

import pytest

from repro.lint.cli import main

FIXTURES = pathlib.Path(__file__).parents[1] / "fixtures" / "analysis"


class TestFlags:
    def test_default_run_includes_whole_program_rules(self, capsys):
        exit_code = main(
            ["--isolated", "--format=json", str(FIXTURES / "rep101_bad.py")]
        )
        assert exit_code == 1
        payload = json.loads(capsys.readouterr().out)
        assert set(payload["counts"]) == {"REP101"}

    def test_removed_flags_are_unknown_arguments(self, capsys):
        for flag in ("--analysis", "--no-analysis", "--rules=REP101"):
            with pytest.raises(SystemExit) as excinfo:
                main([flag, str(FIXTURES)])
            assert excinfo.value.code == 2
            assert "unrecognized arguments" in capsys.readouterr().err

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

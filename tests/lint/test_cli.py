"""CLI behaviour: exit codes, formats, select/ignore, error handling."""

from __future__ import annotations

import json
import pathlib
import shutil

import pytest

from repro.lint import main

FIXTURES = pathlib.Path(__file__).parent / "fixtures"
REPO_ROOT = pathlib.Path(__file__).resolve().parents[2]


class TestExitCodes:
    def test_clean_file_exits_zero(self, capsys):
        assert main(["--isolated", str(FIXTURES / "rep003_good.py")]) == 0
        assert "1 file(s) clean" in capsys.readouterr().out

    def test_findings_exit_one(self, capsys):
        assert main(["--isolated", str(FIXTURES / "rep003_bad.py")]) == 1
        assert "REP003" in capsys.readouterr().out

    def test_bad_fixture_directory_exits_nonzero(self):
        assert main(["--isolated", str(FIXTURES)]) == 1

    def test_missing_path_exits_two(self, capsys):
        assert main(["--isolated", str(FIXTURES / "no_such.py")]) == 2
        assert "no such file" in capsys.readouterr().out

    def test_missing_path_does_not_hide_findings(self, capsys):
        """One typo'd path must not swallow findings from real paths."""
        exit_code = main(
            [
                "--isolated",
                str(FIXTURES / "no_such.py"),
                str(FIXTURES / "rep003_bad.py"),
            ]
        )
        out = capsys.readouterr().out
        assert exit_code == 2
        assert "no such file" in out
        assert "REP003" in out

    def test_non_python_file_skipped_with_warning(self, tmp_path, capsys):
        readme = tmp_path / "README.md"
        readme.write_text("# not python\n")
        assert main(["--isolated", str(readme)]) == 0
        captured = capsys.readouterr()
        assert "skipped (not a Python file)" in captured.err
        assert "0 file(s) clean" in captured.out

    def test_syntax_error_exits_two(self, tmp_path, capsys):
        target = tmp_path / "broken.py"
        target.write_text("def oops(:\n")
        assert main(["--isolated", str(target)]) == 2
        assert "syntax error" in capsys.readouterr().out

    def test_syntax_error_does_not_hide_findings(self, tmp_path, capsys):
        """The model builder reports the broken file and judges the rest,
        under rules that read one module and rules that read them all."""
        (tmp_path / "broken.py").write_text("def oops(:\n")
        shutil.copy(FIXTURES / "rep004_bad.py", tmp_path)
        shutil.copy(FIXTURES / "analysis" / "rep101_bad.py", tmp_path)
        exit_code = main(["--isolated", "--format=json", str(tmp_path)])
        payload = json.loads(capsys.readouterr().out)
        assert exit_code == 2
        [error] = payload["errors"]
        assert error["path"].endswith("broken.py")
        assert error["message"].startswith("syntax error on line 1: ")
        assert {"REP004", "REP101"} <= set(payload["counts"])

    def test_no_paths_is_a_usage_error(self):
        with pytest.raises(SystemExit) as excinfo:
            main([])
        assert excinfo.value.code == 2

    def test_unknown_rule_code_is_a_usage_error(self, capsys):
        """A typo'd --select must not silently disable every rule."""
        with pytest.raises(SystemExit) as excinfo:
            main(["--select=REP999", str(FIXTURES)])
        assert excinfo.value.code == 2
        assert "unknown rule code" in capsys.readouterr().err


class TestFormats:
    def test_json_format_is_machine_readable(self, capsys):
        exit_code = main(
            ["--isolated", "--format=json", str(FIXTURES / "rep003_bad.py")]
        )
        payload = json.loads(capsys.readouterr().out)
        assert exit_code == 1
        assert payload["version"] == 1
        assert payload["files_checked"] == 1
        assert payload["counts"].get("REP003", 0) >= 1
        finding = payload["findings"][0]
        assert set(finding) == {"path", "line", "col", "code", "message"}

    def test_text_format_has_location_prefix(self, capsys):
        main(["--isolated", str(FIXTURES / "rep004_bad.py")])
        out = capsys.readouterr().out
        assert "rep004_bad.py:" in out
        assert ": REP004 " in out

    def test_list_rules(self, capsys):
        # Exactly the codes that survived the seeded-regression audit in
        # docs/LINTING.md; test_seeded_regressions holds one seed each.
        assert main(["--list-rules"]) == 0
        out = capsys.readouterr().out
        assert [line.split()[0] for line in out.splitlines()] == [
            "REP002", "REP003", "REP004", "REP007", "REP101", "REP104",
            "REP200", "REP203", "REP204", "REP306",
        ]


class TestSelection:
    def test_select_narrows_to_one_rule(self, capsys):
        # REP003 judges one module at a time, REP101 the whole program;
        # each input also holds findings of other codes.
        for code, directory in (
            ("REP003", FIXTURES),
            ("REP101", FIXTURES / "analysis"),
        ):
            main(
                ["--isolated", "--format=json", f"--select={code}", str(directory)]
            )
            payload = json.loads(capsys.readouterr().out)
            assert set(payload["counts"]) == {code}

    def test_ignore_drops_a_rule(self, capsys):
        main(["--isolated", "--format=json", "--ignore=REP003", str(FIXTURES)])
        payload = json.loads(capsys.readouterr().out)
        assert "REP003" not in payload["counts"]
        assert payload["counts"]

    def test_explicit_config_file(self, capsys):
        # benchmarks/record.py times the host on purpose; only the repo
        # config's per-path entry for benchmarks/* makes it clean.
        record = REPO_ROOT / "benchmarks" / "record.py"
        assert main(["--isolated", str(record)]) == 1
        exit_code = main(
            ["--config", str(REPO_ROOT / "pyproject.toml"), str(record)]
        )
        assert exit_code == 0

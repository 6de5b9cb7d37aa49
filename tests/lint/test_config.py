"""``[tool.repro-lint]`` parsing, per-path selection, and excludes."""

from __future__ import annotations

import fnmatch
import textwrap

import pytest

from repro.lint import lint_paths, load_config, main
from repro.lint.config import ConfigError, LintConfig, PerPath

from .conftest import REPO

BAD_CLOCK = "import time\n\n\ndef f():\n    return time.time()\n"


def write_project(tmp_path, toml_body: str):
    (tmp_path / "pyproject.toml").write_text(textwrap.dedent(toml_body))
    return tmp_path / "pyproject.toml"


class TestParsing:
    def test_missing_block_yields_defaults(self, tmp_path):
        pyproject = write_project(tmp_path, "[project]\nname = 'x'\n")
        config = load_config(pyproject)
        assert config.root == tmp_path
        assert config.exclude == ()
        assert config.per_path == ()

    def test_full_block_round_trips(self, tmp_path):
        pyproject = write_project(
            tmp_path,
            """
            [tool.repro-lint]
            exclude = ["vendored"]
            select = ["REP004", "REP003"]
            ignore = ["REP003"]

            [[tool.repro-lint.per-path]]
            path = "legacy/*"
            disable = ["REP004"]
            enable = ["REP003"]
            """,
        )
        config = load_config(pyproject)
        assert config.exclude == ("vendored",)
        assert config.select == ("REP004", "REP003")
        assert config.ignore == ("REP003",)
        assert config.per_path == (
            PerPath(pattern="legacy/*", disable=("REP004",), enable=("REP003",)),
        )


class TestEnabledCodes:
    ALL = ("REP002", "REP003", "REP004")

    def test_select_then_ignore_then_per_path(self, tmp_path):
        pyproject = write_project(
            tmp_path,
            """
            [tool.repro-lint]
            ignore = ["REP003"]

            [[tool.repro-lint.per-path]]
            path = "legacy/*"
            disable = ["REP004"]
            enable = ["REP003"]
            """,
        )
        config = load_config(pyproject)
        assert config.enabled_codes("src/a.py", self.ALL) == {"REP002", "REP004"}
        assert config.enabled_codes("legacy/a.py", self.ALL) == {"REP002", "REP003"}

    def test_exclude_matches_dirs_and_globs(self):
        config = LintConfig(exclude=("vendored", "*_pb2.py"))
        assert config.is_excluded("vendored/x.py")
        assert config.is_excluded("proto_pb2.py")
        assert not config.is_excluded("src/a.py")


class TestEndToEnd:
    def test_per_path_disable_silences_file(self, tmp_path):
        write_project(
            tmp_path,
            """
            [tool.repro-lint]

            [[tool.repro-lint.per-path]]
            path = "allowed/*"
            disable = ["REP002"]
            """,
        )
        (tmp_path / "allowed").mkdir()
        (tmp_path / "flagged").mkdir()
        (tmp_path / "allowed" / "a.py").write_text(BAD_CLOCK)
        (tmp_path / "flagged" / "b.py").write_text(BAD_CLOCK)
        result = lint_paths([tmp_path])
        assert [f.path for f in result.findings] == ["flagged/b.py"]

    def test_excluded_files_not_even_parsed(self, tmp_path):
        write_project(
            tmp_path,
            """
            [tool.repro-lint]
            exclude = ["junk"]
            """,
        )
        (tmp_path / "junk").mkdir()
        (tmp_path / "junk" / "broken.py").write_text("def oops(:\n")
        result = lint_paths([tmp_path])
        assert result.errors == []
        assert result.files_checked == 0

    def test_isolated_ignores_pyproject(self, tmp_path):
        write_project(
            tmp_path,
            """
            [tool.repro-lint]
            ignore = ["REP002"]
            """,
        )
        (tmp_path / "a.py").write_text(BAD_CLOCK)
        assert lint_paths([tmp_path / "a.py"]).findings == []
        isolated = lint_paths([tmp_path / "a.py"], isolated=True)
        assert [f.code for f in isolated.findings] == ["REP002"]


class TestUnknownCodes:
    """A code no rule answers to must fail loudly, never switch rules off."""

    def test_typo_in_select_is_rejected(self, tmp_path):
        pyproject = write_project(
            tmp_path,
            """
            [tool.repro-lint]
            select = ["REP0O1"]
            """,
        )
        with pytest.raises(ConfigError, match=r"REP0O1 \(in select\)"):
            load_config(pyproject)

    def test_retired_code_in_per_path_disable_is_rejected(self, tmp_path):
        pyproject = write_project(
            tmp_path,
            """
            [[tool.repro-lint.per-path]]
            path = "src/*"
            disable = ["REP304"]
            """,
        )
        with pytest.raises(ConfigError, match=r"REP304 \(in per-path"):
            load_config(pyproject)

    def test_cli_exits_two_instead_of_reporting_clean(self, tmp_path, capsys):
        write_project(
            tmp_path,
            """
            [tool.repro-lint]
            select = ["REP0O1"]
            """,
        )
        (tmp_path / "a.py").write_text(BAD_CLOCK)
        assert main([str(tmp_path / "a.py")]) == 2
        captured = capsys.readouterr()
        assert "REP0O1" in captured.err
        assert "clean" not in captured.out


class TestRepoRegistries:
    """Every pattern in the repo's registries still names something.

    A rename would otherwise switch a rule off for the renamed code
    without any failing test (the same check for the REP007 hot-path
    registry lives in test_rules.py).
    """

    CONFIG = load_config(REPO / "pyproject.toml")

    def test_durable_patterns_match_files(self):
        files = [
            path.relative_to(REPO).as_posix()
            for path in (REPO / "src").rglob("*.py")
        ]
        durable = self.CONFIG.durable
        assert durable.modules
        stale = [p for p in durable.modules if not fnmatch.filter(files, p)]
        assert stale == [], f"durable patterns matching no file: {stale}"

    def test_rng_stream_and_layer_prefixes_name_packages(self):
        prefixes = [prefix for prefix, _ in self.CONFIG.rng_streams]
        prefixes += [
            prefix
            for _layer, members in self.CONFIG.layers.members
            for prefix in members
        ]
        assert prefixes
        stale = [
            prefix
            for prefix in prefixes
            if not (REPO / "src" / prefix.replace(".", "/")).is_dir()
            and not (REPO / "src" / f"{prefix.replace('.', '/')}.py").is_file()
        ]
        assert stale == [], f"prefixes naming no module: {stale}"

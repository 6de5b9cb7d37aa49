"""Every rule code is demonstrated by one bad and one good fixture."""

from __future__ import annotations

import ast
import fnmatch
import pathlib

import pytest

from repro.lint import all_codes, lint_paths, load_config
from repro.lint.config import HotPathConfig, LintConfig

from .conftest import REPO

FIXTURES = pathlib.Path(__file__).parent / "fixtures"

ALL_CODES = [
    "REP002", "REP003", "REP004", "REP007",
]

#: REP007 is config-driven: its fixtures only light up under a hot-path
#: registry naming the fixture's methods.
HOT_PATH_CONFIG = LintConfig(
    hot_path=HotPathConfig(methods=("FastLink._transmit_*",))
)
FIXTURE_CONFIGS = {"REP007": HOT_PATH_CONFIG}


def defined_methods(root: pathlib.Path) -> list:
    """``Class.method`` for every method defined in a class under ``root``."""
    methods = []
    for path in sorted(root.rglob("*.py")):
        for node in ast.walk(ast.parse(path.read_text(encoding="utf-8"))):
            if isinstance(node, ast.ClassDef):
                methods.extend(
                    f"{node.name}.{item.name}"
                    for item in node.body
                    if isinstance(item, (ast.FunctionDef, ast.AsyncFunctionDef))
                )
    return methods


def codes_in(filename: str, config: LintConfig = None) -> set:
    result = lint_paths([FIXTURES / filename], config, isolated=True)
    assert not result.errors, result.errors
    return {finding.code for finding in result.findings}


def test_rule_registry_matches_documented_codes():
    # One registry, sorted by code; the fixtures of these four live here.
    assert all_codes() == [
        "REP002", "REP003", "REP004", "REP007",
        "REP101", "REP104", "REP200", "REP203", "REP204", "REP306",
    ]
    assert set(ALL_CODES) <= set(all_codes())


@pytest.mark.parametrize("code", ALL_CODES)
def test_bad_fixture_triggers_its_rule(code):
    assert code in codes_in(f"{code.lower()}_bad.py", FIXTURE_CONFIGS.get(code))


@pytest.mark.parametrize("code", ALL_CODES)
def test_good_fixture_is_clean(code):
    assert codes_in(f"{code.lower()}_good.py", FIXTURE_CONFIGS.get(code)) == set()


@pytest.mark.parametrize("code", ALL_CODES)
def test_bad_fixture_triggers_only_its_rule(code):
    """Each bad fixture is a focused demonstration, not a grab bag."""
    assert codes_in(f"{code.lower()}_bad.py", FIXTURE_CONFIGS.get(code)) == {code}


class TestRep007Details:
    def test_inert_without_hot_path_registry(self):
        assert codes_in("rep007_bad.py") == set()

    def test_flags_both_guard_styles(self):
        result = lint_paths([FIXTURES / "rep007_bad.py"], HOT_PATH_CONFIG)
        messages = [f.message for f in result.findings]
        # `if self._injector is not None:` and the `if self._loss_model`
        # ternary are both per-event guards.
        assert len(messages) == 2
        assert any("self._injector" in m for m in messages)
        assert any("self._loss_model" in m for m in messages)

    def test_custom_guard_list_overrides_default(self):
        config = LintConfig(
            hot_path=HotPathConfig(
                methods=("FastLink._transmit_*",), guards=("_loss_model",)
            )
        )
        result = lint_paths([FIXTURES / "rep007_bad.py"], config)
        assert [f.code for f in result.findings] == ["REP007"]
        assert "_loss_model" in result.findings[0].message

    def test_methods_outside_registry_are_ignored(self):
        config = LintConfig(
            hot_path=HotPathConfig(methods=("OtherClass.other_method",))
        )
        assert not lint_paths([FIXTURES / "rep007_bad.py"], config).findings

    def test_repo_pyproject_registers_hot_path_methods(self):
        """Every registered pattern still names a method under src/repro.

        A rename would otherwise switch REP007 off for the renamed method
        without a failing test.
        """
        config = load_config(REPO / "pyproject.toml")
        assert "Link.transmit" in config.hot_path.methods
        assert "Link._drop_*" in config.hot_path.methods
        assert "Dispatcher._forward_event" in config.hot_path.methods
        assert "Dispatcher._receive_plain" in config.hot_path.methods
        assert "PullRecoveryBase.on_event_received" in config.hot_path.methods
        assert "EventCache.split_loss_keys" in config.hot_path.methods
        methods = defined_methods(REPO / "src" / "repro")
        stale = [
            pattern
            for pattern in config.hot_path.methods
            if not fnmatch.filter(methods, pattern)
        ]
        assert stale == [], f"hot-path patterns matching no method: {stale}"


class TestSuppression:
    def test_suppressed_fixture_is_clean(self):
        result = lint_paths([FIXTURES / "suppressed.py"], isolated=True)
        assert result.findings == []

    def test_select_overrides_do_not_resurrect_suppressions(self):
        result = lint_paths(
            [FIXTURES / "suppressed.py"], isolated=True, select=["REP002"]
        )
        assert result.findings == []

    def test_directive_on_closing_paren_of_multiline_call(self, tmp_path):
        """The comment may sit on any line the violating node spans."""
        target = tmp_path / "multiline.py"
        target.write_text(
            "import time\n"
            "\n"
            "x = time.time(\n"
            ")  # repro-lint: disable=REP002\n"
        )
        result = lint_paths([target], isolated=True)
        assert result.findings == []

    def test_directive_inside_span_does_not_leak_to_later_lines(self, tmp_path):
        target = tmp_path / "leak.py"
        target.write_text(
            "import time\n"
            "\n"
            "x = time.time()  # repro-lint: disable=REP002\n"
            "y = time.time()\n"
        )
        result = lint_paths([target], isolated=True)
        assert [f.line for f in result.findings] == [4]

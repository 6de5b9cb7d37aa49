"""Suppression directives on a ``def`` line cover its decorator lines.

Findings anchored on a decorator expression (the node of
``@deco(time.time())`` starts on the ``@`` line) used to dodge a
``# repro-lint: disable=…`` written on the ``def`` line below — the natural
place to put it.  ``parse_suppressions`` now records decorator-line
redirects when given the parsed tree.
"""

from __future__ import annotations

import ast
import textwrap

from repro.lint import lint_paths
from repro.lint.suppress import parse_suppressions

DECORATED = textwrap.dedent(
    """\
    import time


    def deco(value):
        def wrap(fn):
            return fn
        return wrap


    @deco(time.time())
    def seeded():  # repro-lint: disable=REP002
        return 1
    """
)


def _write(tmp_path, source, name="decorated.py"):
    path = tmp_path / name
    path.write_text(source, encoding="utf-8")
    return path


class TestRedirects:
    def test_map_records_decorator_lines(self):
        suppressions = parse_suppressions(DECORATED, ast.parse(DECORATED))
        # the @deco(...) line redirects to the def line below it
        assert suppressions.redirects[10] == 11

    def test_multiline_decorator_lines_all_redirect(self):
        source = textwrap.dedent(
            """\
            @deco(
                1,
                2,
            )
            def fn():  # repro-lint: disable=REP002
                return 1
            """
        )
        suppressions = parse_suppressions(source, ast.parse(source))
        assert {1, 2, 3, 4} <= set(suppressions.redirects)
        assert suppressions.redirects[1] == 5

    def test_without_tree_no_redirects(self):
        suppressions = parse_suppressions(DECORATED)
        assert suppressions.redirects == {}


class TestEndToEnd:
    def test_def_line_directive_covers_decorator_violation(self, tmp_path):
        path = _write(tmp_path, DECORATED)
        result = lint_paths([path], isolated=True)
        assert result.findings == [], "\n".join(
            finding.render() for finding in result.findings
        )

    def test_violation_still_reported_without_directive(self, tmp_path):
        bare = DECORATED.replace("  # repro-lint: disable=REP002", "")
        path = _write(tmp_path, bare)
        result = lint_paths([path], isolated=True)
        assert [finding.code for finding in result.findings] == ["REP002"]
        # anchored on the decorator line, which is what made this case hard
        assert result.findings[0].line == 10

    def test_directive_on_decorator_line_itself_still_works(self, tmp_path):
        moved = DECORATED.replace(
            "@deco(time.time())",
            "@deco(time.time())  # repro-lint: disable=REP002",
        ).replace("  # repro-lint: disable=REP002\n    return 1", "\n    return 1")
        path = _write(tmp_path, moved)
        result = lint_paths([path], isolated=True)
        assert result.findings == []

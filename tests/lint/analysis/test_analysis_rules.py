"""Fixture-driven tests of the REP101 and REP104 whole-program rules.

Each ``repNNN_bad.py`` fixture seeds exactly the regression its rule
protects against — a post-send ``Message`` mutation, an unpicklable
executor submission — and must produce *only* that rule's code; each
``repNNN_good.py`` encodes the boundary shapes (rebinding a fresh
envelope, a partial of a module-level function) that must stay clean.
"""

from __future__ import annotations

import pathlib

import pytest

from repro.lint import lint_paths

FIXTURES = pathlib.Path(__file__).parents[1] / "fixtures" / "analysis"

BAD_EXPECTATIONS = [
    ("rep101_bad.py", "REP101", 1),
    ("rep104_bad.py", "REP104", 2),  # lambda + nested def
    ("rep104_partial_bad.py", "REP104", 3),  # partial of each of those
    ("rep104_report_bad.py", "REP104", 1),  # lambda to map_report
]


@pytest.mark.parametrize("filename,code,count", BAD_EXPECTATIONS)
def test_bad_fixture_fires_exactly_its_rule(filename, code, count):
    result = lint_paths([FIXTURES / filename], isolated=True)
    assert result.errors == []
    codes = [finding.code for finding in result.findings]
    assert codes == [code] * count, "\n".join(
        finding.render() for finding in result.findings
    )


@pytest.mark.parametrize(
    "filename",
    [
        "rep101_good.py",
        "rep104_good.py",
        "rep104_partial_good.py",
    ],
)
def test_good_fixture_is_clean(filename):
    result = lint_paths([FIXTURES / filename], isolated=True)
    assert result.errors == []
    assert result.findings == [], "\n".join(
        finding.render() for finding in result.findings
    )


def test_whole_fixture_directory_counts():
    """One project build over all fixtures keeps the per-file attribution."""
    result = lint_paths([FIXTURES], isolated=True)
    by_code: dict = {}
    for finding in result.findings:
        by_code[finding.code] = by_code.get(finding.code, 0) + 1
    assert by_code == {"REP101": 1, "REP104": 6}


def test_analysis_findings_honor_inline_suppression(tmp_path):
    source = (FIXTURES / "rep101_bad.py").read_text(encoding="utf-8")
    patched = source.replace(
        "message.size_bits = 128",
        "message.size_bits = 128  # repro-lint: disable=REP101",
    )
    target = tmp_path / "suppressed_send.py"
    target.write_text(patched, encoding="utf-8")
    result = lint_paths([target], isolated=True)
    assert result.findings == []


def test_selecting_rep1xx_code_enables_analysis():
    result = lint_paths(
        [FIXTURES / "rep104_bad.py"], isolated=True, select=["REP104"]
    )
    assert [finding.code for finding in result.findings] == ["REP104", "REP104"]


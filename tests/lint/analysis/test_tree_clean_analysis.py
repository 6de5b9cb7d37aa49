"""The whole-program analyzer ships clean on its own tree (acceptance gate).

``python -m repro.lint --analysis src benchmarks examples`` from the repo
root must exit 0 — exactly what CI runs.  This keeps the guarantee under
plain pytest, and specifically asserts zero *unsuppressed* whole-program
findings over ``src/repro``.
"""

from __future__ import annotations

import pathlib

from repro.lint import analysis_codes, lint_paths, load_config

REPO_ROOT = pathlib.Path(__file__).resolve().parents[3]


def _rep1xx(findings):
    wanted = set(analysis_codes())
    return [finding for finding in findings if finding.code in wanted]


def test_src_has_zero_unsuppressed_rep1xx_findings():
    config = load_config(REPO_ROOT / "pyproject.toml")
    result = lint_paths([REPO_ROOT / "src"], config, analysis=True)
    assert result.errors == []
    offenders = _rep1xx(result.findings)
    assert offenders == [], "\n".join(f.render() for f in offenders)


def test_benchmarks_and_examples_analysis_clean():
    config = load_config(REPO_ROOT / "pyproject.toml")
    result = lint_paths(
        [REPO_ROOT / "benchmarks", REPO_ROOT / "examples"], config, analysis=True
    )
    assert result.errors == []
    assert result.findings == [], "\n".join(
        f.render() for f in result.findings
    )


def test_full_acceptance_command_is_clean(tree_lint):
    """The exact CI invocation: src + benchmarks + examples, analysis on."""
    result = tree_lint.result
    assert result.exit_code == 0, "\n".join(
        f.render() for f in result.findings
    )
    assert result.files_checked >= 90

"""The linter ships clean on its own codebase (the acceptance gate).

``python -m repro.lint src benchmarks examples`` from the repo root must
exit 0 — exactly what CI runs.  The session ``tree_lint`` fixture makes
that run once; this gate and the per-family gates read its result.
"""

from __future__ import annotations


def test_full_acceptance_command_is_clean(tree_lint):
    result = tree_lint.result
    assert result.errors == []
    assert result.exit_code == 0, "\n".join(
        f.render() for f in result.findings
    )
    assert result.files_checked >= 90

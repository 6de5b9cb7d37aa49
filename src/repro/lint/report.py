"""Rendering lint results as human text, machine JSON, or SARIF 2.1.0."""

from __future__ import annotations

import json
from collections import Counter
from typing import Dict, List

from .findings import Finding, LintError

__all__ = ["render_text", "render_json", "render_sarif"]


def render_text(findings: List[Finding], errors: List[LintError], files: int) -> str:
    """The classic ``path:line:col: CODE message`` listing plus a summary."""
    lines = [error.render() for error in errors]
    lines.extend(finding.render() for finding in findings)
    if findings or errors:
        by_code = Counter(finding.code for finding in findings)
        breakdown = ", ".join(f"{code}×{n}" for code, n in sorted(by_code.items()))
        summary = f"{len(findings)} finding(s) in {files} file(s)"
        if breakdown:
            summary += f" [{breakdown}]"
        if errors:
            summary += f"; {len(errors)} file(s) could not be linted"
        lines.append(summary)
    else:
        lines.append(f"{files} file(s) clean")
    return "\n".join(lines)


def render_json(findings: List[Finding], errors: List[LintError], files: int) -> str:
    """Stable JSON for CI and tooling: findings, errors, per-code counts."""
    payload = {
        "version": 1,
        "files_checked": files,
        "findings": [finding.to_dict() for finding in findings],
        "errors": [error.to_dict() for error in errors],
        "counts": dict(sorted(Counter(f.code for f in findings).items())),
    }
    return json.dumps(payload, indent=2, sort_keys=True)


def _rule_catalogue() -> List[Dict[str, object]]:
    """SARIF ``tool.driver.rules`` metadata for every rule."""
    from .analysis import RULES

    catalogue: List[Dict[str, object]] = []
    for rule in RULES:
        catalogue.append(
            {
                "id": rule.code,
                "name": rule.name,
                "shortDescription": {"text": rule.summary},
                "defaultConfiguration": {"level": "error"},
            }
        )
    return catalogue


def render_sarif(
    findings: List[Finding], errors: List[LintError], files: int
) -> str:
    """SARIF 2.1.0 for GitHub code scanning.

    Findings become ``results``; files that could not be linted become
    ``toolExecutionNotifications`` so they surface in the run log without
    fabricating a source location.
    """
    rules = _rule_catalogue()
    rule_index = {rule["id"]: i for i, rule in enumerate(rules)}
    results = [
        {
            "ruleId": finding.code,
            "ruleIndex": rule_index.get(finding.code, -1),
            "level": "error",
            "message": {"text": finding.message},
            "locations": [
                {
                    "physicalLocation": {
                        "artifactLocation": {
                            "uri": finding.path,
                            "uriBaseId": "%SRCROOT%",
                        },
                        "region": {
                            "startLine": max(finding.line, 1),
                            "startColumn": finding.col + 1,
                        },
                    }
                }
            ],
        }
        for finding in findings
    ]
    notifications = [
        {
            "level": "error",
            "message": {"text": f"{error.path}: {error.message}"},
        }
        for error in errors
    ]
    payload = {
        "$schema": (
            "https://raw.githubusercontent.com/oasis-tcs/sarif-spec/master/"
            "Schemata/sarif-schema-2.1.0.json"
        ),
        "version": "2.1.0",
        "runs": [
            {
                "tool": {
                    "driver": {
                        "name": "repro-lint",
                        "informationUri": "docs/LINTING.md",
                        "rules": rules,
                    }
                },
                "results": results,
                "invocations": [
                    {
                        "executionSuccessful": not errors,
                        "toolExecutionNotifications": notifications,
                    }
                ],
            }
        ],
    }
    return json.dumps(payload, indent=2, sort_keys=True)

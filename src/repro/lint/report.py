"""Rendering lint results as human text, machine JSON, or SARIF 2.1.0."""

from __future__ import annotations

import json
from collections import Counter
from typing import Any, Dict, List

from .findings import Finding, LintError

__all__ = ["render_text", "render_json", "render_sarif",
           "render_arch_text", "render_arch_json"]


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
    """SARIF ``tool.driver.rules`` metadata for all rule families."""
    from .analysis import ANALYSIS_RULES
    from .rules import RULES

    catalogue: List[Dict[str, object]] = []
    for rule in (*RULES, *ANALYSIS_RULES):
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


# ----------------------------------------------------------------------
# Architecture report (repro-lint --arch-report)
# ----------------------------------------------------------------------


def render_arch_json(report: Dict[str, Any]) -> str:
    """Stable JSON form of the architecture report (the CI artifact)."""
    return json.dumps(report, indent=2, sort_keys=True)


def render_arch_text(report: Dict[str, Any]) -> str:
    """Human-readable layer graph + effect summary."""
    lines: List[str] = []
    layers = report["layers"]
    order = layers["order"]
    lines.append("# Layer map (bottom -> top)")
    if not order:
        lines.append("  (no layers declared; see [tool.repro-lint.layers])")
    for layer in order:
        confined = "  [confined]" if layer in layers["confined"] else ""
        lines.append(f"  {layer}{confined}")
        for module in layers["modules"].get(layer, []):
            lines.append(f"    {module}")
    lines.append("")
    lines.append("# Import edges (layer -> layer)")
    for edge in report["imports"]["edges"]:
        lines.append(
            f"  {edge['from']} -> {edge['to']}: {edge['imports']} import(s)"
        )
    violations = report["imports"]["violations"]
    if violations:
        lines.append("")
        lines.append("# Layer violations (upward imports)")
        for violation in violations:
            lines.append(
                f"  {violation['source']}:{violation['line']} "
                f"({violation['source_layer']}) imports "
                f"{violation['target']} ({violation['target_layer']})"
            )
    lines.append("")
    lines.append("# Engine touchpoints")
    for pattern in report["touchpoints"]["declared"]:
        lines.append(f"  declared: {pattern}")
    for qualname in report["touchpoints"]["used"]:
        lines.append(f"  used:     {qualname}")
    lines.append("")
    lines.append("# Per-node / per-event classes")
    for entry in report["per_node_classes"]:
        slots = "__slots__" if entry["slots"] else "NO __slots__"
        lines.append(f"  {entry['class']} [{slots}] — {entry['reason']}")
    lines.append("")
    lines.append("# Per-module effects")
    for module, summary in report["effects"].items():
        lines.append(f"  {module}")
        for effect, owners in summary.items():
            lines.append(f"    {effect}: {', '.join(owners)}")
    lines.append("")
    lines.append(f"{report['files_analyzed']} module(s) analyzed")
    return "\n".join(lines)

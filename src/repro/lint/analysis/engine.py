"""Orchestration: run the whole-program rules over a set of files.

:func:`run_analysis` takes the same ``(path, rel_path)`` pairs the per-file
walker lints, builds one :class:`~repro.lint.analysis.model.Project` over all
of them, runs every whole-program rule, and filters the raw findings
through the same per-path configuration and inline-suppression machinery
as the per-file rules — a ``# repro-lint: disable=REP101`` comment works
identically for both.
"""

from __future__ import annotations

import ast
from pathlib import Path
from typing import Callable, Dict, List, Optional, Sequence, Set, Tuple

from ..config import LintConfig
from ..findings import Finding
from ..suppress import SuppressionMap, parse_suppressions
from .arch_rules import ARCH_RULES, ArchContext
from .durable import DURABLE_RULES
from .model import ModuleInfo, build_project
from .rules import ANALYSIS_RULES as CORE_ANALYSIS_RULES

__all__ = ["run_analysis", "ALL_ANALYSIS_RULES"]

#: Every whole-program rule, in catalogue order.
ALL_ANALYSIS_RULES = [*CORE_ANALYSIS_RULES, *ARCH_RULES, *DURABLE_RULES]

#: rel-path → enabled rule codes for that file (the CLI passes a closure
#: over the loaded LintConfig).
EnabledFn = Callable[[str], Set[str]]


def run_analysis(
    files: Sequence[Tuple[Path, str]],
    enabled_for: EnabledFn,
    config: Optional[LintConfig] = None,
) -> List[Finding]:
    """Run REP002, REP101, REP104, REP200, REP203, REP204 and REP306 over
    ``files`` and return suppression-filtered findings sorted in the
    standard order."""
    if config is None:
        config = LintConfig()
    project = build_project(files)
    raw: List[Tuple[ModuleInfo, ast.AST, str, str]] = []

    def add(module: ModuleInfo, node: ast.AST, code: str, message: str) -> None:
        raw.append((module, node, code, message))

    for rule in CORE_ANALYSIS_RULES:
        rule.run(project, add)
    context = ArchContext(project, config)
    for arch_rule in (*ARCH_RULES, *DURABLE_RULES):
        arch_rule.run_arch(context, add)

    suppression_cache: Dict[str, SuppressionMap] = {}
    findings: List[Finding] = []
    for module, node, code, message in raw:
        if code not in enabled_for(module.rel):
            continue
        suppressions = suppression_cache.get(module.rel)
        if suppressions is None:
            suppressions = parse_suppressions(module.source, module.tree)
            suppression_cache[module.rel] = suppressions
        line = getattr(node, "lineno", 0)
        end_line = getattr(node, "end_lineno", None) or line
        if suppressions.is_suppressed_span(code, line, end_line):
            continue
        findings.append(
            Finding(
                path=module.rel,
                line=line,
                col=getattr(node, "col_offset", 0),
                code=code,
                message=message,
            )
        )
    findings.sort()
    return findings

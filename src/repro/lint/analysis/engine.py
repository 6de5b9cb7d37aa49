"""Orchestration: the rule registry, and one lint run over a project.

:data:`RULES` holds every rule, sorted by code.  :func:`run_analysis`
builds the run's :class:`~repro.lint.analysis.arch_rules.ArchContext` over
one parsed :class:`~repro.lint.analysis.model.Project`, runs every rule,
and passes the raw findings through the one filter: the per-path enabled
codes, then the inline suppressions.  A module's suppression comments are
tokenized only when one of its findings gets that far.
"""

from __future__ import annotations

import ast
from typing import Callable, Dict, List, Set, Tuple

from ..config import LintConfig
from ..findings import Finding
from ..rules import (
    HotPathGuardRule,
    IdBasedIdentityRule,
    Rule,
    UnorderedIterationRule,
)
from ..suppress import SuppressionMap, parse_suppressions
from .arch_rules import (
    ArchContext,
    LayerImportRule,
    RngStreamRule,
    SlotsRule,
    WallClockRule,
)
from .durable import NonAtomicWriteRule
from .model import ModuleInfo, Project
from .rules import ExecutorPicklableRule, MessageAliasRule

__all__ = ["RULES", "all_codes", "run_analysis"]

#: Every rule, sorted by code: one implementation per code.
RULES: List[Rule] = [
    WallClockRule(),
    UnorderedIterationRule(),
    IdBasedIdentityRule(),
    HotPathGuardRule(),
    MessageAliasRule(),
    ExecutorPicklableRule(),
    LayerImportRule(),
    SlotsRule(),
    RngStreamRule(),
    NonAtomicWriteRule(),
]


def all_codes() -> List[str]:
    return [rule.code for rule in RULES]


#: rel-path → enabled rule codes for that file (the CLI passes a closure
#: over the loaded LintConfig).
EnabledFn = Callable[[str], Set[str]]


def run_analysis(
    project: Project, config: LintConfig, enabled_for: EnabledFn
) -> List[Finding]:
    """Run every rule over ``project`` and return the enabled, unsuppressed
    findings sorted in the standard order."""
    raw: List[Tuple[ModuleInfo, ast.AST, str, str]] = []

    def add(module: ModuleInfo, node: ast.AST, code: str, message: str) -> None:
        raw.append((module, node, code, message))

    context = ArchContext(project, config)
    for rule in RULES:
        rule.run(context, add)

    suppression_cache: Dict[str, SuppressionMap] = {}
    findings: List[Finding] = []
    for module, node, code, message in raw:
        if code not in enabled_for(module.rel):
            continue
        suppressions = suppression_cache.get(module.rel)
        if suppressions is None:
            suppressions = parse_suppressions(module.source, module.tree)
            suppression_cache[module.rel] = suppressions
        # A directive on any line the node spans counts, so it also works
        # on the closing paren of a multi-line call.
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

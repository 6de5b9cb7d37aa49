"""Orchestration: run the whole-program rules over a set of files.

:func:`run_analysis` takes the same ``(path, rel_path)`` pairs the per-file
walker lints, builds one :class:`~repro.lint.analysis.model.Project` over all
of them, runs every whole-program rule (and the whole-program halves of
REP002/REP003), and filters the raw findings through the same per-path
configuration and inline-suppression machinery as the per-file rules — a
``# repro-lint: disable=REP101`` comment works identically for both.

:func:`build_arch_report` reuses the same project model and
:class:`~repro.lint.analysis.arch_rules.ArchContext` to emit the resolved
layer graph and per-module effect summary behind ``repro-lint
--arch-report``.
"""

from __future__ import annotations

import ast
from pathlib import Path
from typing import Any, Callable, Dict, List, Optional, Sequence, Set, Tuple

from ..config import LintConfig
from ..findings import Finding
from ..suppress import SuppressionMap, parse_suppressions
from .arch_rules import ARCH_RULES, DEEP_RULES, ArchContext
from .durable import DURABLE_RULES
from .model import ModuleInfo, Project, build_project
from .rules import ANALYSIS_RULES as CORE_ANALYSIS_RULES

__all__ = [
    "run_analysis",
    "build_arch_report",
    "ALL_ANALYSIS_RULES",
]

#: Every whole-program rule with a code of its own, in catalogue order.
ALL_ANALYSIS_RULES = [*CORE_ANALYSIS_RULES, *ARCH_RULES, *DURABLE_RULES]

#: rel-path → enabled rule codes for that file (the CLI passes a closure
#: over the loaded LintConfig).
EnabledFn = Callable[[str], Set[str]]


def run_analysis(
    files: Sequence[Tuple[Path, str]],
    enabled_for: EnabledFn,
    config: Optional[LintConfig] = None,
) -> List[Finding]:
    """Run REP100–REP105, REP200–REP204, REP306 and the whole-program
    halves of REP002/REP003 over ``files`` and return suppression-filtered
    findings sorted in the standard order."""
    if config is None:
        config = LintConfig()
    project = build_project(files)
    raw: List[Tuple[ModuleInfo, ast.AST, str, str]] = []

    def add(module: ModuleInfo, node: ast.AST, code: str, message: str) -> None:
        raw.append((module, node, code, message))

    for rule in CORE_ANALYSIS_RULES:
        rule.run(project, add)
    context = ArchContext(project, config)
    for arch_rule in (*ARCH_RULES, *DEEP_RULES, *DURABLE_RULES):
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


# ----------------------------------------------------------------------
# Architecture report (repro-lint --arch-report)
# ----------------------------------------------------------------------


def build_arch_report(
    files: Sequence[Tuple[Path, str]], config: Optional[LintConfig] = None
) -> Dict[str, Any]:
    """The resolved layer graph + per-module effect summary, as plain data.

    Everything is sorted so the output is byte-stable for a given tree —
    the golden-output test and the CI artifact rely on that.
    """
    if config is None:
        config = LintConfig()
    project = build_project(files)
    context = ArchContext(project, config)
    layer_map = context.layer_map

    violations = [
        {
            "source": edge.source.name,
            "source_layer": edge.source_layer,
            "target": edge.target,
            "target_layer": edge.target_layer,
            "line": getattr(edge.node, "lineno", 0),
        }
        for edge in layer_map.violations()
    ]
    violations.sort(key=lambda v: (v["source"], v["line"]))

    edges = [
        {"from": source, "to": target, "imports": count}
        for (source, target), count in sorted(
            layer_map.edge_counts().items()
        )
    ]

    touchpoints_used: Set[str] = set()
    for record in context.effects.functions.values():
        if record.direct & {"sim-time", "sim-schedule", "sim-engine"}:
            function = record.function
            if context.layer_map.is_confined(function.module.name):
                if context.is_touchpoint(function):
                    touchpoints_used.add(function.qualname)

    effects_by_module = {
        name: context.effects.module_summary(name)
        for name in sorted(project.modules)
    }
    effects_by_module = {
        name: summary for name, summary in effects_by_module.items() if summary
    }

    per_node = [
        {
            "class": qualname,
            "reason": context.per_node[qualname],
            "slots": _has_slots(context, qualname),
        }
        for qualname in sorted(context.per_node)
        if qualname in context.project.classes
        and context.below_top(
            context.project.classes[qualname].module.name
        )
    ]

    return {
        "layers": {
            "order": list(config.layers.order),
            "confined": list(config.layers.confined),
            "modules": layer_map.modules_by_layer(),
        },
        "imports": {"edges": edges, "violations": violations},
        "touchpoints": {
            "declared": sorted(config.layers.engine_touchpoints),
            "used": sorted(touchpoints_used),
        },
        "effects": effects_by_module,
        "per_node_classes": per_node,
        "files_analyzed": len(project.modules),
    }


def _has_slots(context: ArchContext, qualname: str) -> bool:
    from .arch_rules import SlotsRule

    cls = context.project.classes.get(qualname)
    if cls is None:
        return False
    return SlotsRule()._slotless_ancestor(cls) is None

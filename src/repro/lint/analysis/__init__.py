"""Whole-program analysis: REP002, REP101, REP104, REP200, REP203,
REP204 and REP306.

Layered below :mod:`repro.lint.cli`:

* :mod:`~repro.lint.analysis.model` — project symbol table: modules,
  import-alias resolution (absolute + relative), classes with linearized
  ancestry, re-export chasing.
* :mod:`~repro.lint.analysis.layers` — the declared layer map resolved
  over the analyzed modules, with import edges (REP200).
* :mod:`~repro.lint.analysis.effects` — interprocedural effect inference
  over the resolvable call graph (REP204, REP002's call chains) and the
  per-node class closure (REP203).
* :mod:`~repro.lint.analysis.rules` — the two cross-module protocol
  rules (REP101, REP104).
* :mod:`~repro.lint.analysis.arch_rules` — REP002 and the architecture
  rules (REP200, REP203, REP204) over the shared :class:`ArchContext`.
* :mod:`~repro.lint.analysis.durable` — REP306, write-then-rename in
  declared durable modules.
* :mod:`~repro.lint.analysis.engine` — orchestration + suppression/config
  filtering, producing ordinary :class:`~repro.lint.findings.Finding`\\ s.
"""

from .arch_rules import ARCH_RULES, ArchContext
from .engine import ALL_ANALYSIS_RULES, run_analysis
from .model import Project, build_project

#: Every whole-program rule — the public catalogue.
ANALYSIS_RULES = ALL_ANALYSIS_RULES


def analysis_codes():
    """Codes of the whole-program rules."""
    return [rule.code for rule in ANALYSIS_RULES]


__all__ = [
    "run_analysis",
    "Project",
    "build_project",
    "ArchContext",
    "ANALYSIS_RULES",
    "ARCH_RULES",
    "analysis_codes",
]

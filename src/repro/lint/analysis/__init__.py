"""Whole-program analysis: REP100–REP105, REP200–REP204, REP306, and the
whole-program halves of REP002/REP003.

Layered below :mod:`repro.lint.cli`:

* :mod:`~repro.lint.analysis.model` — project symbol table: modules,
  import-alias resolution (absolute + relative), classes with linearized
  ancestry, functions with call arities, re-export chasing.
* :mod:`~repro.lint.analysis.dataflow` — intraprocedural facts: local
  alias maps, self-attribute reads/mutations, and the per-path
  mutated-vs-invalidated abstract interpretation behind REP100.
* :mod:`~repro.lint.analysis.layers` — the declared layer map resolved
  over the analyzed modules, with import edges (REP200, --arch-report).
* :mod:`~repro.lint.analysis.effects` — interprocedural effect inference
  over the resolvable call graph (REP201/REP202/REP204, the REP002 and
  REP003 halves, --arch-report).
* :mod:`~repro.lint.analysis.rules` — the six cross-module protocol
  rules (REP100–REP105).
* :mod:`~repro.lint.analysis.arch_rules` — the five architecture rules
  (REP200–REP204) and the REP002/REP003 halves over the shared
  :class:`ArchContext`.
* :mod:`~repro.lint.analysis.durable` — REP306, write-then-rename in
  declared durable modules.
* :mod:`~repro.lint.analysis.engine` — orchestration + suppression/config
  filtering, producing ordinary :class:`~repro.lint.findings.Finding`\\ s,
  and the ``--arch-report`` data builder.
"""

from .arch_rules import ARCH_RULES, ArchContext
from .engine import ALL_ANALYSIS_RULES, build_arch_report, run_analysis
from .model import Project, build_project

#: Every whole-program rule with a code of its own — the public catalogue.
ANALYSIS_RULES = ALL_ANALYSIS_RULES


def analysis_codes():
    """Codes whose selection implies the whole-program analysis."""
    return [rule.code for rule in ANALYSIS_RULES]


__all__ = [
    "run_analysis",
    "build_arch_report",
    "Project",
    "build_project",
    "ArchContext",
    "ANALYSIS_RULES",
    "ARCH_RULES",
    "analysis_codes",
]

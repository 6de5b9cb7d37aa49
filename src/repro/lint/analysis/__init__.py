"""The lint pipeline below :mod:`repro.lint.cli`: one parsed project model,
every rule over it, and one filter.

* :mod:`~repro.lint.analysis.model` — project symbol table, built by
  reading and parsing each file once: modules, import-alias resolution
  (absolute + relative), classes with linearized ancestry, re-export
  chasing; unreadable or unparsable files become errors.
* :mod:`~repro.lint.analysis.layers` — the declared layer map resolved
  over the analyzed modules, with import edges (REP200).
* :mod:`~repro.lint.analysis.effects` — interprocedural effect inference
  over the resolvable call graph (REP204, REP002's call chains) and the
  per-node class closure (REP203).
* :mod:`~repro.lint.analysis.arch_rules` — the :class:`ArchContext` every
  rule reads, REP002 and the architecture rules (REP200, REP203, REP204).
* :mod:`~repro.lint.analysis.rules` — the two cross-module protocol
  rules (REP101, REP104).
* :mod:`~repro.lint.analysis.durable` — REP306, write-then-rename in
  declared durable modules.
* :mod:`~repro.lint.analysis.engine` — the :data:`RULES` registry and the
  run: every rule, then the enabled-code and inline-suppression filter,
  producing ordinary :class:`~repro.lint.findings.Finding`\\ s.

REP003, REP004 and REP007, which judge one module at a time, live in
:mod:`repro.lint.rules` with the rule base class.
"""

from .arch_rules import ArchContext
from .engine import RULES, all_codes, run_analysis
from .model import Project, build_project

__all__ = [
    "ArchContext",
    "Project",
    "RULES",
    "all_codes",
    "build_project",
    "run_analysis",
]

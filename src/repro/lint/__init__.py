"""``repro.lint`` — AST-based determinism & protocol-invariant linter.

The paper's evaluation stands on bit-identical seeded re-runs: every curve
in Figs. 3–10 must replay exactly from a master seed.  This package enforces
the coding rules that make that true, statically:

========  =======================================================
REP001    randomness outside injected ``random.Random`` streams
REP002    wall-clock reads (``time.time``, ``datetime.now``, ...)
REP003    iteration over unordered sets / bare ``dict.popitem()``
REP004    ``id()``/``hash()``-derived ordering or hashing
REP005    negative delays or scheduling outside ``Simulator``
REP006    mutable default arguments
========  =======================================================

On top of the per-file rules, ``--analysis`` runs a whole-program pass
(:mod:`repro.lint.analysis`) enforcing the cross-module contracts the hot
paths rely on:

========  =======================================================
REP100    memo backing state mutated without ``_invalidate()``
REP101    shared forward ``Message`` mutated after send/schedule
REP102    scheduled callback unresolvable / wrong arity
REP103    RNG constructed outside ``repro/sim/rng.py``
REP104    non-picklable callable submitted to an executor
REP105    recovery subclass breaks the base-class contract
========  =======================================================

plus the architecture rules REP200–REP204, REP306 (write-then-rename in
durable modules), and the interprocedural halves of REP002 and REP003.

Run it with ``python -m repro.lint <paths>`` or the ``repro-lint`` console
script; see ``docs/LINTING.md`` for the full rule rationale and the
suppression / configuration syntax.
"""

from __future__ import annotations

from .analysis import ANALYSIS_RULES, analysis_codes, run_analysis
from .cli import LintResult, lint_paths, main
from .config import LintConfig, PerPath, load_config
from .findings import Finding, LintError
from .rules import RULES, all_codes

__all__ = [
    "ANALYSIS_RULES",
    "Finding",
    "LintConfig",
    "LintError",
    "LintResult",
    "PerPath",
    "RULES",
    "all_codes",
    "analysis_codes",
    "lint_paths",
    "load_config",
    "main",
    "run_analysis",
]

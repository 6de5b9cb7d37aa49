"""``repro.lint`` — AST-based determinism & protocol-invariant linter.

The paper's evaluation stands on bit-identical seeded re-runs: every curve
in Figs. 3–10 must replay exactly from a master seed.  The test suite's
frozen signatures catch most ways of breaking that; this package checks,
statically, the hazards that leave today's results unchanged:

========  =======================================================
REP002    wall-clock reads (``time.time``, ``datetime.now``, ...)
REP003    iteration over unordered sets / bare ``dict.popitem()``
REP004    ``id()``/``hash()``-derived ordering or hashing
REP007    per-event branches on setup-time config in hot paths
========  =======================================================

On top of the per-file rules, ``--analysis`` runs a whole-program pass
(:mod:`repro.lint.analysis`):

========  =======================================================
REP101    shared forward ``Message`` mutated after send/schedule
REP104    non-picklable callable submitted to an executor
REP200    import from a higher layer of the declared layer map
REP203    per-node class without ``__slots__`` / with string hot keys
REP204    RNG stream off the consuming subsystem's declared names
REP306    durable write without write-then-rename
========  =======================================================

plus the interprocedural halves of REP002 and REP003.  Each rule is kept
for a seeded regression the rest of the test suite misses
(``tests/lint/test_seeded_regressions.py``).

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

"""``repro.lint`` — AST-based determinism & protocol-invariant linter.

The paper's evaluation stands on bit-identical seeded re-runs: every curve
in Figs. 3–10 must replay exactly from a master seed.  The test suite's
frozen signatures catch most ways of breaking that; this package checks,
statically, the hazards that leave today's results unchanged.  Every run
judges each file on its own with the per-file rules:

========  =======================================================
REP003    iteration over a set, or a name bound to one / bare
          ``dict.popitem()``
REP004    ``id()``/``hash()``-derived ordering or hashing
REP007    per-event branches on setup-time config in hot paths
========  =======================================================

and the whole program with the rules of :mod:`repro.lint.analysis`:

========  =======================================================
REP002    wall-clock reads; host clock/host I/O reachable from
          confined-layer code through a call chain
REP101    shared forward ``Message`` mutated after send/schedule
REP104    non-picklable callable submitted to an executor
REP200    import from a higher layer of the declared layer map
REP203    per-node class without ``__slots__`` / with string hot keys
REP204    RNG stream off the consuming subsystem's declared names
REP306    durable write without write-then-rename
========  =======================================================

Each code has one implementation, kept for a seeded regression the rest
of the test suite misses (``tests/lint/test_seeded_regressions.py``).

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

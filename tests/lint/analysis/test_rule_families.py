"""One table per merged rule family: every bad case of a retired code now
fires under the surviving code, and every good fixture stays clean.

Three families used to check one property at two or three depths:

* set order — REP003 absorbed REP205 (a set-typed variable iterated
  into send/schedule) and REP305 (the same through a call chain);
* identity ordering — REP004 absorbed REP302 (``key=id``/``key=hash``
  and compared ``hash()`` results);
* wall clock — REP002 absorbed REP304 (host clock or host I/O reachable
  from protocol code).  REP304's direct ``time.sleep`` case went to
  REP005, which the seeded-regression audit deleted: the test suite
  fails on both of its seeds (docs/LINTING.md).

Each surviving code now has one implementation: REP003 flags any loop or
comprehension over a set-bound local or ``self`` attribute, whatever the
body does, and REP002 is one whole-program rule for direct clock reads
and call chains alike.

Each table row is ``(fixture, line, retired code, code that flags it)``.
Every finding of the family's codes in those fixtures must be a row, so
the quiet forms inside the bad fixtures stay quiet too.
"""

from __future__ import annotations

import functools
import pathlib

from repro.lint import lint_paths

from .test_arch_rules import arch_config
from .test_concurrency_rules import protocol_config

FIXTURES = pathlib.Path(__file__).parents[1] / "fixtures"

SET_ORDER = [
    ("proto_emission.py", 15, "REP205", "REP003"),  # loop body sends
    ("proto_emission.py", 21, "REP205", "REP003"),  # comprehension sent
    ("proto_chain.py", 22, "REP305", "REP003"),  # callee sends
]
IDENTITY = [
    ("proto_identity.py", 20, "REP302", "REP004"),  # sorted(key=id)
    ("proto_identity.py", 26, "REP302", "REP004"),  # hash(a) < hash(b)
]
WALL_CLOCK = [
    ("proto_blocking.py", 16, "REP304", "REP002"),  # inherited wait
    ("proto_blocking.py", 22, "REP304", "REP002"),  # direct host I/O
]

#: Good fixtures of the surviving per-file rules and of the multi-module
#: trees; none may draw a finding from the family's codes.
GOOD = (
    "rep002_good.py",
    "rep003_good.py",
    "rep004_good.py",
    "arch/proto_clean.py",
    "protocol/proto_own_clean.py",
    "protocol/app.py",
)


@functools.lru_cache(maxsize=None)
def fixture_findings():
    """``(file name, line, code)`` for both fixture trees under their own
    layer maps, plus the per-file good fixtures, whole program on."""
    results = [
        lint_paths([FIXTURES / "arch"], arch_config()),
        lint_paths([FIXTURES / "protocol"], protocol_config()),
        lint_paths(
            [FIXTURES / name for name in GOOD if "/" not in name],
            isolated=True,
        ),
    ]
    for result in results:
        assert result.errors == []
    return [
        (pathlib.Path(f.path).name, f.line, f.code)
        for result in results
        for f in result.findings
    ]


def check_family(table):
    codes = {row[3] for row in table}
    files = {row[0] for row in table}
    found = {
        (name, line, code)
        for name, line, code in fixture_findings()
        if code in codes and name in files
    }
    assert found == {(name, line, code) for name, line, _, code in table}
    good = {pathlib.Path(name).name for name in GOOD}
    noisy = [
        finding
        for finding in fixture_findings()
        if finding[2] in codes and finding[0] in good
    ]
    assert noisy == []


def test_set_order_family_is_rep003():
    check_family(SET_ORDER)


def test_identity_family_is_rep004():
    check_family(IDENTITY)


def test_wall_clock_family_is_rep002():
    check_family(WALL_CLOCK)

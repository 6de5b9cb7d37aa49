"""Fixture-driven tests of the REP200–REP204 architecture rules.

``tests/lint/fixtures/arch/`` is a nine-module miniature of the real
stack — ``eng`` (engine) < ``net`` (transport) < ``proto_*`` (confined
protocol layer) < ``app`` (wiring) — small enough to hand-check yet deep
enough to exercise every rule: an upward import, a slotless per-node
class, a slotted per-node class keyed by hot strings, off-contract RNG
stream names, and a set-typed attribute's iteration order escaping into
the transport (REP003).  The layer map lives here (not in a pyproject)
so each expectation names the exact config that produced it.

Alongside the per-rule expectations this module carries the tree-wide
REP2xx gate over the real sources and the analyzer runtime budget; both
read the session-wide pass from ``conftest``.
"""

from __future__ import annotations

import collections
import pathlib

import pytest

from repro.lint import lint_paths
from repro.lint.config import LayersConfig, LintConfig

ARCH = pathlib.Path(__file__).parents[1] / "fixtures" / "arch"

ARCH_CODES = ("REP200", "REP203", "REP204")
#: proto_emission.py demonstrates REP003 on a set-typed attribute.
FIXTURE_CODES = (*ARCH_CODES, "REP003")

PROTO_MODULES = (
    "proto_clean",
    "proto_layering",
    "proto_slotless",
    "proto_strkeys",
    "proto_streams",
    "proto_emission",
)

EXPECTED = {
    "proto_layering.py": ["REP200"],
    "proto_slotless.py": ["REP203"],
    "proto_strkeys.py": ["REP203"],
    "proto_streams.py": ["REP204", "REP204"],
    "proto_emission.py": ["REP003", "REP003"],
}

CLEAN = ("eng.py", "net.py", "proto_clean.py", "app.py")


def arch_config() -> LintConfig:
    return LintConfig(
        root=ARCH,
        layers=LayersConfig(
            order=("engine", "transport", "proto", "app"),
            members=(
                ("engine", ("eng",)),
                ("transport", ("net",)),
                ("proto", PROTO_MODULES),
                ("app", ("app",)),
            ),
            confined=("proto",),
        ),
        rng_streams=(("proto_streams", ("agents", "agents[*")),),
    )


def lint_arch_tree():
    return lint_paths([ARCH], arch_config(), select=FIXTURE_CODES)


def test_every_rule_fires_exactly_where_expected():
    result = lint_arch_tree()
    assert result.errors == []
    by_file = collections.defaultdict(list)
    for finding in result.findings:
        by_file[pathlib.Path(finding.path).name].append(finding.code)
    rendered = "\n".join(f.render() for f in result.findings)
    assert dict(by_file) == EXPECTED, rendered


@pytest.mark.parametrize("filename", CLEAN)
def test_clean_modules_stay_clean(filename):
    result = lint_arch_tree()
    offenders = [
        finding
        for finding in result.findings
        if pathlib.Path(finding.path).name == filename
    ]
    assert offenders == [], "\n".join(f.render() for f in offenders)


def test_repo_tree_is_rep2xx_clean(tree_lint):
    # The real sources must satisfy the architecture they declare —
    # with the pyproject layer map, not a test-local one.
    result = tree_lint.result
    assert result.errors == []
    offenders = [f for f in result.findings if f.code in ARCH_CODES]
    assert offenders == [], "\n".join(f.render() for f in offenders)


def test_analyzer_runtime_budget(tree_lint):
    # The whole-program pass over the full source tree must stay
    # interactive: under 10 seconds.
    assert tree_lint.result.errors == []
    assert tree_lint.seconds < 10.0, (
        f"analysis took {tree_lint.seconds:.2f}s (budget 10s)"
    )

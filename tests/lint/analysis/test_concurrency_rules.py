"""Fixture tests of the multi-module protocol stack, and the REP3xx gates.

``tests/lint/fixtures/protocol/`` is a seven-module miniature of the
real stack — ``eng`` (engine) < ``net`` (transport) < ``proto_*``
(confined protocol layer) < ``app`` (wiring) — whose bad modules show
the hazards that need the whole program to see: identity-derived
ordering in scheduling code, the host clock reached through a call
chain, host I/O in protocol code, and set order escaping through a
call chain.  ``test_rule_families`` checks the same fixtures line by
line; this module checks the tree as a whole, and carries the
tree-wide REP3xx (REP306) gates over the real sources.
"""

from __future__ import annotations

import collections
import pathlib

import pytest

from repro.lint import lint_paths
from repro.lint.config import LayersConfig, LintConfig

REPO = pathlib.Path(__file__).parents[3]
PROTOCOL = pathlib.Path(__file__).parents[1] / "fixtures" / "protocol"

#: The surviving codes of the set-order, identity and wall-clock families.
FAMILY_CODES = ("REP002", "REP003", "REP004")

PROTO_MODULES = (
    "proto_own_clean",
    "proto_identity",
    "proto_blocking",
    "proto_chain",
)

EXPECTED = {
    "proto_identity.py": ["REP004", "REP004"],
    "proto_blocking.py": ["REP002", "REP002"],
    "proto_chain.py": ["REP003"],
}

CLEAN = ("eng.py", "net.py", "proto_own_clean.py", "app.py")


def protocol_config() -> LintConfig:
    return LintConfig(
        root=PROTOCOL,
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
    )


def lint_protocol_tree():
    return lint_paths([PROTOCOL], protocol_config(), select=FAMILY_CODES)


def test_every_rule_fires_exactly_where_expected():
    result = lint_protocol_tree()
    assert result.errors == []
    by_file = collections.defaultdict(list)
    for finding in result.findings:
        by_file[pathlib.Path(finding.path).name].append(finding.code)
    rendered = "\n".join(f.render() for f in result.findings)
    assert dict(by_file) == EXPECTED, rendered


@pytest.mark.parametrize("filename", CLEAN)
def test_clean_modules_stay_clean(filename):
    result = lint_protocol_tree()
    offenders = [
        finding
        for finding in result.findings
        if pathlib.Path(finding.path).name == filename
    ]
    assert offenders == [], "\n".join(f.render() for f in offenders)


def test_repo_tree_is_rep3xx_clean(tree_lint):
    # The real sources keep the durable-write discipline they declare.
    result = tree_lint.result
    assert result.errors == []
    offenders = [f for f in result.findings if f.code.startswith("REP3")]
    assert offenders == [], "\n".join(f.render() for f in offenders)


def test_no_inline_rep3xx_suppressions_in_tree():
    # Durable modules are declared in config, never waved through with
    # inline pragmas.
    offenders = []
    for path in sorted((REPO / "src").rglob("*.py")):
        text = path.read_text()
        if "disable=REP3" in text.replace(" ", ""):
            offenders.append(str(path))
    assert offenders == []


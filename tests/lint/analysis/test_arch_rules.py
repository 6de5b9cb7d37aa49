"""Fixture-driven tests of the REP200–REP204 architecture rules.

``tests/lint/fixtures/arch/`` is an eleven-module miniature of the real
stack — ``eng`` (engine) < ``net`` (transport) < ``proto_*`` (confined
protocol layer) < ``app`` (wiring) — small enough to hand-check yet deep
enough to exercise every rule: an upward import, an un-touchpointed
engine access, shared mutable state on a per-node class, a slotless
per-node class, a slotted per-node class keyed by hot strings,
off-contract RNG stream names, and set iteration order escaping into
the transport (REP003's whole-program half).  The layer map lives here (not in a
pyproject) so each expectation names the exact config that produced it.

Alongside the per-rule expectations this module carries the tree-wide
REP2xx gate over the real sources, the ``--arch-report`` golden test,
the CLI round-trip through a TOML config, and the analyzer runtime
budget; the last two read the session-wide pass from ``conftest``.
"""

from __future__ import annotations

import collections
import json
import pathlib
import shutil

import pytest

from repro.lint import lint_paths
from repro.lint.cli import arch_report_paths, main
from repro.lint.config import LayersConfig, LintConfig
from repro.lint.report import render_arch_json, render_arch_text

ARCH = pathlib.Path(__file__).parents[1] / "fixtures" / "arch"
GOLDEN = ARCH / "ARCH_REPORT.golden"

ARCH_CODES = tuple(f"REP20{i}" for i in range(5))
#: proto_emission.py demonstrates REP003's whole-program half.
FIXTURE_CODES = (*ARCH_CODES, "REP003")

PROTO_MODULES = (
    "proto_clean",
    "proto_layering",
    "proto_engine",
    "proto_state",
    "proto_slotless",
    "proto_strkeys",
    "proto_streams",
    "proto_emission",
)

EXPECTED = {
    "proto_layering.py": ["REP200"],
    "proto_engine.py": ["REP201"],
    "proto_state.py": ["REP202", "REP202"],
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
            engine_touchpoints=(
                "NodeAgent.__init__",
                "NodeAgent.on_timer",
            ),
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


def test_touchpointed_engine_access_is_not_a_finding():
    # NodeAgent.on_timer touches sim time *and* the scheduler, yet is
    # allowlisted; dropping the touchpoints must surface it as REP201.
    base = arch_config()
    stripped = LintConfig(
        root=base.root,
        layers=LayersConfig(
            order=base.layers.order,
            members=base.layers.members,
            confined=base.layers.confined,
            engine_touchpoints=(),
        ),
        rng_streams=base.rng_streams,
    )
    result = lint_paths([ARCH], stripped, select=("REP201",))
    flagged = {pathlib.Path(f.path).name for f in result.findings}
    assert "proto_clean.py" in flagged
    assert "proto_engine.py" in flagged


def test_arch_report_matches_golden():
    report = arch_report_paths([ARCH], arch_config())
    text = render_arch_text(report)
    if not text.endswith("\n"):
        text += "\n"
    assert text == GOLDEN.read_text(), (
        "arch report drifted from the golden; if the change is "
        "intentional, regenerate tests/lint/fixtures/arch/"
        "ARCH_REPORT.golden from render_arch_text()"
    )


def test_arch_report_json_is_structured():
    report = arch_report_paths([ARCH], arch_config())
    payload = json.loads(render_arch_json(report))
    assert payload["layers"]["order"] == [
        "engine",
        "transport",
        "proto",
        "app",
    ]
    assert payload["files_analyzed"] == 11
    violations = payload["imports"]["violations"]
    assert len(violations) == 1 and violations[0]["source"] == (
        "proto_layering"
    )
    slotless = [
        cls for cls in payload["per_node_classes"] if not cls["slots"]
    ]
    assert [cls["class"] for cls in slotless] == [
        "proto_slotless.Beacon"
    ]


def test_cli_arch_report_round_trips_toml_config(tmp_path, capsys):
    for source in ARCH.glob("*.py"):
        shutil.copy(source, tmp_path / source.name)
    proto = ", ".join(f'"{name}"' for name in PROTO_MODULES)
    (tmp_path / "pyproject.toml").write_text(
        "[tool.repro-lint.layers]\n"
        'order = ["engine", "transport", "proto", "app"]\n'
        'confined = ["proto"]\n'
        'engine-touchpoints = ["NodeAgent.__init__", "NodeAgent.on_timer"]\n'
        "\n"
        "[tool.repro-lint.layers.members]\n"
        'engine = ["eng"]\n'
        'transport = ["net"]\n'
        f"proto = [{proto}]\n"
        'app = ["app"]\n'
        "\n"
        "[tool.repro-lint.rng-streams]\n"
        'proto_streams = ["agents", "agents[*"]\n'
    )
    exit_code = main(
        [
            "--arch-report",
            "--format=json",
            "--config",
            str(tmp_path / "pyproject.toml"),
            str(tmp_path),
        ]
    )
    payload = json.loads(capsys.readouterr().out)
    assert exit_code == 0
    assert payload["layers"]["order"][-1] == "app"
    assert payload["files_analyzed"] == 11
    assert len(payload["imports"]["violations"]) == 1


def test_cli_arch_report_text_lists_layer_map(tmp_path, capsys):
    for source in ARCH.glob("*.py"):
        shutil.copy(source, tmp_path / source.name)
    exit_code = main(["--arch-report", "--isolated", str(tmp_path)])
    out = capsys.readouterr().out
    assert exit_code == 0
    assert "# Layer map" in out
    assert "module(s) analyzed" in out


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

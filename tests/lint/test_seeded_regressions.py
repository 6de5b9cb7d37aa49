"""Seeded regressions for every rule code: the bugs each rule is kept for.

A rule earns its place only by catching a regression the rest of the
test suite misses.  Each entry below puts its rule's bug class at a real
site in ``src/`` that the suite executes; a code has one seed per form
of the bug its one implementation must report.  In the audit recorded in
docs/LINTING.md, every one of these seeds left the tier-1 suite (minus
``tests/lint``) green: the rule is the only check that reports it.

Each test reads the real source file and checks that the original
snippet is still there, so a refactor of the site fails here instead of
quietly retiring the seed.  The seeds are then applied in memory to a
copy of the linted tree, which is linted once under the repository's own
``pyproject.toml``.  Every seed must be reported under its code at its
line.
"""

from __future__ import annotations

import shutil
from typing import Dict, NamedTuple, Set, Tuple

import pytest

from repro.lint import ANALYSIS_RULES, RULES, lint_paths, load_config
from repro.lint.analysis.rules import AnalysisRule
from repro.lint.rules import Rule

from .conftest import REPO, TREE


#: ``(code, path, line)`` of one finding.
Location = Tuple[str, str, int]


class Seed(NamedTuple):
    code: str
    path: str
    #: ``(original, seeded)`` replacements, applied in order; each
    #: original must occur exactly once in the file.
    edits: Tuple[Tuple[str, str], ...]
    #: Unique text on the line the rule must report.
    flagged: str
    #: Tells apart the seeds of one code in test ids.
    variant: str = ""

    @property
    def label(self) -> str:
        return f"{self.code}-{self.variant}" if self.variant else self.code


SEEDS = (
    # Wall clock (suite green): a host-time safety valve in the event
    # loop.  Every run the suite makes finishes long before the deadline,
    # but on a loaded host the same seed stops early and the results
    # depend on host speed.
    Seed(
        "REP002",
        "src/repro/sim/engine.py",
        (
            ("import heapq\n", "import heapq\nimport time as _wall\n"),
            (
                "        processed = self._processed\n        try:\n",
                "        processed = self._processed\n"
                "        wall_deadline = _wall.monotonic() + 3600.0\n"
                "        try:\n",
            ),
            (
                "            while queue and not self._stopped:\n",
                "            while queue and not self._stopped:\n"
                "                if _wall.monotonic() > wall_deadline:\n"
                "                    break\n",
            ),
        ),
        "if _wall.monotonic() > wall_deadline:",
    ),
    # Host input (suite green): a publish-rate override read from a file
    # in the protocol layer.  No test run has the file, so every result
    # is unchanged; a host that has it runs another workload from the
    # same seed.  Only REP002's call-chain part sees host I/O.
    Seed(
        "REP002",
        "src/repro/workload/publishers.py",
        ((
            "    publishers = []\n"
            "    for node_id in range(system.node_count):\n",
            "    publishers = []\n"
            "    try:\n"
            '        with open("publishers.override", encoding="utf-8") as handle:\n'
            "            rate = float(handle.read())\n"
            "    except OSError:\n"
            "        pass\n"
            "    for node_id in range(system.node_count):\n",
        ),),
        'with open("publishers.override", encoding="utf-8") as handle:',
        "host-io",
    ),
    # Set order (suite green): de-duplicating the neighbour list with a
    # set.  Node ids are small ints, whose set order happens to be
    # ascending, so every frozen signature still matches; any identity
    # with a salted hash reorders the subscription floods between runs.
    Seed(
        "REP003",
        "src/repro/pubsub/dispatcher.py",
        ((
            "        for neighbor in self.neighbors():\n"
            "            if neighbor == exclude:",
            "        for neighbor in set(self.neighbors()):\n"
            "            if neighbor == exclude:",
        ),),
        "for neighbor in set(self.neighbors()):",
    ),
    # The same set, bound to a name first (suite green), in the sibling
    # loop that withdraws subscriptions: it behaves exactly like the seed
    # above at run time, and REP003 must follow the binding.
    Seed(
        "REP003",
        "src/repro/pubsub/dispatcher.py",
        ((
            "        for neighbor in self.neighbors():\n"
            "            if not self.table.was_forwarded(pattern, neighbor):",
            "        targets = set(self.neighbors())\n"
            "        for neighbor in targets:\n"
            "            if not self.table.was_forwarded(pattern, neighbor):",
        ),),
        "for neighbor in targets:",
        "bound",
    ),
    # Identity ordering (suite green): ordering retransmission targets by
    # hash().  hash() of an int is the int, so the order is unchanged
    # today; a str or tuple identity makes it differ per process.
    Seed(
        "REP004",
        "src/repro/recovery/ack.py",
        ((
            "            for node in sorted(pending.missing):",
            "            for node in sorted(pending.missing, key=hash):",
        ),),
        "for node in sorted(pending.missing, key=hash):",
    ),
    # Post-send mutation (suite green): filling in a retransmission's
    # payload after handing the envelope to the out-of-band channel.  The
    # channel delivers it oob_latency later, so the receiver still sees
    # the event; a zero-latency channel, or a second send of the same
    # envelope, would deliver the wrong payload.
    Seed(
        "REP101",
        "src/repro/pubsub/dispatcher.py",
        ((
            "        message = Message(MessageKind.OOB_EVENT, event, self.node_id)\n"
            "        self.network.send_oob(self.node_id, to_node, message)",
            "        message = Message(MessageKind.OOB_EVENT, None, self.node_id)\n"
            "        self.network.send_oob(self.node_id, to_node, message)\n"
            "        message.payload = event",
        ),),
        "        message.payload = event",
    ),
    # Executor submission (suite green): ``compare`` inlines
    # map_scenarios with a lambda.  The tests run compare with the
    # default one job, whose serial executor never pickles; --jobs 2
    # fails on the first cell.
    Seed(
        "REP104",
        "src/repro/cli.py",
        (
            (
                "from repro.parallel import map_scenarios\n",
                "from repro.parallel import get_executor, map_scenarios\n",
            ),
            (
                "        results = map_scenarios(configs, jobs=args.jobs)\n",
                "        results = get_executor(args.jobs).map(\n"
                "            lambda config: run_scenario(config), configs\n"
                "        )\n",
            ),
        ),
        "lambda config: run_scenario(config), configs",
    ),
    # Layer map (suite green): the engine importing a network type.  No
    # cycle results, so everything still imports and runs; the engine
    # now depends on the transport built on it.
    Seed(
        "REP200",
        "src/repro/sim/timers.py",
        ((
            "from repro.sim.engine import ScheduledEvent, SimulationError, "
            "Simulator\n",
            "from repro.network.message import Message\n"
            "from repro.sim.engine import ScheduledEvent, SimulationError, "
            "Simulator\n",
        ),),
        "from repro.network.message import Message",
    ),
    # Hot-path guard (suite green): folding the jitter variant back into
    # the plain tick.  _fire_plain is only bound when there is no jitter,
    # so results are identical; every gossip tick just pays the branch
    # the setup-time binding removed.
    Seed(
        "REP007",
        "src/repro/sim/timers.py",
        ((
            "            return\n"
            "        self._handle = self._sim.schedule(self.period, self._fire_plain)",
            "            return\n"
            "        delay = self.period\n"
            "        if self._jitter_fn is not None:\n"
            "            delay = max(1e-9, delay + self._jitter_fn())\n"
            "        self._handle = self._sim.schedule(delay, self._fire_plain)",
        ),),
        "if self._jitter_fn is not None:",
    ),
    # Per-node slots (suite green): a per-event class without __slots__.
    # Results are identical; every message sent just carries a
    # __dict__, which is what dominates memory at 10^5 nodes.
    Seed(
        "REP203",
        "src/repro/network/message.py",
        ((
            '    __slots__ = ("kind", "payload", "size_bits", "sender")\n\n',
            "",
        ),),
        "class Message:",
    ),
    # Stream discipline (suite green): the fault injector handed the
    # reconfiguration stream.  RandomStreams returns one generator per
    # name, so a run with both churn and reconfiguration interleaves the
    # two subsystems' draws; no test pins such a run's numbers.
    Seed(
        "REP204",
        "src/repro/scenarios/builder.py",
        ((
            '                self.streams.stream("faults"),',
            '                self.streams.stream("reconfiguration"),',
        ),),
        'self.streams.stream("reconfiguration"),\n                plan,',
    ),
    # Durable write (suite green): the journal writes a cell record in
    # place instead of through atomic_write_text.  No test kills the
    # process in the middle of that write, so the suite passes; a kill
    # there leaves a torn record that a resumed campaign trusts.
    Seed(
        "REP306",
        "src/repro/campaign/journal.py",
        ((
            '        atomic_write_text(self.cells_dir / f"{digest}.ndjson", '
            'line + "\\n")',
            '        (self.cells_dir / f"{digest}.ndjson").write_text(\n'
            '            line + "\\n", encoding="utf-8"\n'
            "        )",
        ),),
        '(self.cells_dir / f"{digest}.ndjson").write_text(',
    ),
)


def _source(seed: Seed) -> str:
    return (REPO / seed.path).read_text(encoding="utf-8")


@pytest.fixture(scope="module")
def seeded_lint(tmp_path_factory) -> Tuple[Set[Location], Dict[Seed, Location]]:
    """Lint a copy of the tree with every seed applied.

    Returns every ``(code, path, line)`` reported, and the one each seed
    must produce.
    """
    root = tmp_path_factory.mktemp("seeded")
    shutil.copy(REPO / "pyproject.toml", root / "pyproject.toml")
    for directory in TREE:
        for path in directory.rglob("*.py"):
            target = root / path.relative_to(REPO)
            target.parent.mkdir(parents=True, exist_ok=True)
            shutil.copy(path, target)
    texts: Dict[str, str] = {}
    for seed in SEEDS:
        text = texts.get(seed.path) or _source(seed)
        for original, seeded in seed.edits:
            text = text.replace(original, seeded, 1)
        texts[seed.path] = text
    for rel, text in texts.items():
        (root / rel).write_text(text, encoding="utf-8")
    result = lint_paths(
        [root / d.relative_to(REPO) for d in TREE],
        load_config(root / "pyproject.toml"),
    )
    assert result.errors == []
    expected = {}
    for seed in SEEDS:
        text = texts[seed.path]
        line = text[: text.index(seed.flagged)].count("\n") + 1
        expected[seed] = (seed.code, seed.path, line)
    return {(f.code, f.path, f.line) for f in result.findings}, expected


def test_every_surviving_code_has_a_seed():
    codes = {rule.code for rule in (*RULES, *ANALYSIS_RULES)}
    assert {seed.code for seed in SEEDS} == codes


def test_one_implementation_per_code():
    """Every rule class answers to its own code and is catalogued."""
    classes = set()
    stack = [Rule, AnalysisRule]
    while stack:
        cls = stack.pop()
        stack.extend(cls.__subclasses__())
        if cls.code:
            classes.add(cls)
    codes = sorted(cls.code for cls in classes)
    assert len(codes) == len(set(codes)), codes
    assert classes == {type(rule) for rule in (*RULES, *ANALYSIS_RULES)}


@pytest.mark.parametrize("seed", SEEDS, ids=lambda seed: seed.label)
def test_rule_reports_its_seed(seed, seeded_lint):
    source = _source(seed)
    for original, _seeded in seed.edits:
        assert source.count(original) == 1, (
            f"{seed.path} changed: the {seed.code} seed site is gone; "
            "move the seed to the site's new form"
        )
    found, expected = seeded_lint
    assert expected[seed] in found, (
        f"{seed.code} does not report its seed at "
        f"{seed.path}:{expected[seed][2]}"
    )

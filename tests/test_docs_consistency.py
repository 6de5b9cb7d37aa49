"""Documentation-vs-code consistency checks.

DESIGN.md and docs/ promise specific defaults and behaviours; these tests
keep the prose honest when the code moves.
"""

from __future__ import annotations

import pathlib

from repro.network.message import DEFAULT_MESSAGE_SIZE_BITS
from repro.recovery import ALGORITHMS, PAPER_ALGORITHMS
from repro.scenarios.config import SimulationConfig

REPO_ROOT = pathlib.Path(__file__).resolve().parent.parent
DESIGN = (REPO_ROOT / "DESIGN.md").read_text()
README = (REPO_ROOT / "README.md").read_text()
EXPERIMENTS = (REPO_ROOT / "EXPERIMENTS.md").read_text()


class TestDesignPromises:
    def test_p_forward_default_documented(self):
        config = SimulationConfig()
        assert f"default **{config.p_forward}**" in DESIGN

    def test_digest_limit_documented(self):
        config = SimulationConfig()
        assert f"**{config.digest_limit} entries**" in DESIGN

    def test_message_size_documented(self):
        bytes_default = DEFAULT_MESSAGE_SIZE_BITS // 8
        assert f"{bytes_default} B" in DESIGN

    def test_every_paper_algorithm_named_in_design(self):
        for name in PAPER_ALGORITHMS:
            module = ALGORITHMS[name].__module__.rsplit(".", 1)[-1]
            assert f"recovery/{module}.py" in DESIGN.replace("`", ""), name

    def test_figure2_defaults_stated(self):
        for fragment in ("N = 100", "πmax = 2", "β = 1500", "T = 0.03"):
            assert fragment in DESIGN or fragment.replace(" ", "") in DESIGN


class TestReadmePromises:
    def test_headline_table_matches_algorithm_names(self):
        for name in ("subscriber-based pull", "publisher-based pull",
                     "combined pull", "push", "random pull"):
            assert name in README

    def test_install_commands_present(self):
        assert "pip install -e ." in README
        assert "pytest tests/" in README
        assert "pytest benchmarks -q --benchmark-disable" in README


class TestPerformancePromises:
    PERFORMANCE = (REPO_ROOT / "docs" / "PERFORMANCE.md").read_text()

    def test_readme_links_performance_doc(self):
        assert "docs/PERFORMANCE.md" in README

    def test_documented_entry_points_exist(self):
        from repro.parallel import map_scenarios  # noqa: F401 - doc promise
        import inspect

        from repro.scenarios.replication import run_replications
        from repro.scenarios.sweep import run_grid, sweep, sweep_algorithms

        for fn in (run_grid, sweep, sweep_algorithms, run_replications):
            assert "jobs" in inspect.signature(fn).parameters, fn.__name__

    def test_cli_jobs_flag_documented_and_real(self):
        from repro.cli import build_parser

        assert "--jobs" in self.PERFORMANCE
        parser = build_parser()
        args = parser.parse_args(["compare", "--jobs", "4"])
        assert args.jobs == 4

    def test_record_script_exists(self):
        assert (REPO_ROOT / "benchmarks" / "record.py").is_file()
        assert "benchmarks/record.py" in self.PERFORMANCE


class TestLintingCataloguePromises:
    LINTING = (REPO_ROOT / "docs" / "LINTING.md").read_text()

    @staticmethod
    def all_rule_codes():
        from repro.lint import RULES

        return sorted(rule.code for rule in RULES)

    def test_every_rule_has_a_catalogue_entry(self):
        # Each shipped REPxxx rule gets a `### REPxxx — ...` heading.
        for code in self.all_rule_codes():
            assert f"### {code} " in self.LINTING, (
                f"{code} is implemented but has no docs/LINTING.md entry"
            )

    def test_every_catalogue_entry_has_a_rule(self):
        import re

        documented = re.findall(r"^### (REP\d{3}) ", self.LINTING,
                                flags=re.MULTILINE)
        implemented = set(self.all_rule_codes())
        ghosts = [code for code in documented if code not in implemented]
        assert ghosts == [], (
            f"docs/LINTING.md documents rules that do not exist: {ghosts}"
        )

    def test_catalogue_entries_are_unique(self):
        import re

        documented = re.findall(r"^### (REP\d{3}) ", self.LINTING,
                                flags=re.MULTILINE)
        assert len(documented) == len(set(documented))


class TestExperimentsPromises:
    def test_every_figure_bench_referenced(self):
        benches = sorted(
            p.name for p in (REPO_ROOT / "benchmarks").glob("test_fig*.py")
        )
        for bench in benches:
            assert bench in EXPERIMENTS, bench

    def test_every_ablation_bench_referenced(self):
        for path in sorted((REPO_ROOT / "benchmarks").glob("test_ablation_*.py")):
            assert path.name in EXPERIMENTS, path.name

    def test_scale_disclosure_present(self):
        assert "bench scale" in EXPERIMENTS
        assert "REPRO_PAPER_SCALE" in EXPERIMENTS

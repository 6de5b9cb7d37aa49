"""Repository-level hygiene checks: imports, examples, public API."""

from __future__ import annotations

import importlib
import os
import pathlib
import pkgutil
import py_compile
import subprocess
import sys

import repro

REPO_ROOT = pathlib.Path(__file__).resolve().parent.parent


class TestImports:
    def test_every_module_imports(self):
        count = 0
        for module in pkgutil.walk_packages(repro.__path__, "repro."):
            importlib.import_module(module.name)
            count += 1
        assert count >= 40

    def test_public_api_exports_exist(self):
        for name in repro.__all__:
            assert hasattr(repro, name), name

    def test_version_is_set(self):
        assert repro.__version__

    def test_running_a_scenario_does_not_load_the_process_pool(self):
        # In a fresh interpreter: this process has already imported every
        # module (test_every_module_imports).
        probe = (
            "import sys\n"
            "from repro.scenarios.runner import run_scenario\n"
            "loaded = {'repro.campaign', 'concurrent.futures.process'}\n"
            "assert not loaded & set(sys.modules), loaded & set(sys.modules)\n"
            "from repro import run_campaign\n"
            "assert run_campaign.__module__.startswith('repro.campaign')\n"
        )
        env = dict(os.environ, PYTHONPATH=str(REPO_ROOT / "src"))
        completed = subprocess.run(
            [sys.executable, "-c", probe], env=env, capture_output=True, text=True
        )
        assert completed.returncode == 0, completed.stderr


class TestExamples:
    def test_examples_compile(self):
        examples = sorted((REPO_ROOT / "examples").glob("*.py"))
        assert len(examples) >= 4
        for example in examples:
            py_compile.compile(str(example), doraise=True)

    def test_examples_have_docstrings_and_main(self):
        for example in sorted((REPO_ROOT / "examples").glob("*.py")):
            source = example.read_text()
            assert source.lstrip().startswith(("#!", '"""')), example.name
            assert "def main()" in source, example.name
            assert '__main__' in source, example.name


class TestDocumentation:
    def test_required_documents_exist(self):
        for name in ("README.md", "DESIGN.md", "EXPERIMENTS.md", "pyproject.toml"):
            assert (REPO_ROOT / name).is_file(), name

    def test_every_figure_has_a_benchmark(self):
        benches = {p.name for p in (REPO_ROOT / "benchmarks").glob("test_fig*.py")}
        expected = {
            "test_fig03a_lossy_delivery.py",
            "test_fig03b_reconfiguration.py",
            "test_fig04_buffer_size.py",
            "test_fig04_gossip_interval.py",
            "test_fig05_interval_x_buffer.py",
            "test_fig06_scalability.py",
            "test_fig07_receivers_per_event.py",
            "test_fig08_patterns_delivery.py",
            "test_fig09a_overhead_scale.py",
            "test_fig09b_overhead_patterns.py",
            "test_fig10_overhead_error_rate.py",
        }
        assert expected <= benches

    def test_experiments_md_covers_every_figure(self):
        text = (REPO_ROOT / "EXPERIMENTS.md").read_text()
        for figure in ("Fig 2", "Fig 3(a)", "Fig 3(b)", "Fig 4", "Fig 5",
                       "Fig 6", "Fig 7", "Fig 8", "Fig 9(a)", "Fig 9(b)",
                       "Fig 10"):
            assert figure in text, figure

    def test_public_modules_have_docstrings(self):
        for module_info in pkgutil.walk_packages(repro.__path__, "repro."):
            module = importlib.import_module(module_info.name)
            assert module.__doc__, f"{module_info.name} lacks a docstring"

"""The lint is one pipeline: each file is read and parsed once, into the
one project model every rule reads, and a module's suppression comments
are tokenized only when one of its findings reaches the filter.  Every
file given stays in that model, even when two map to one module name.

A pipeline that also judges each file in a separate per-file pass fails
the first two tests: it parses every file twice (once per pass) and
tokenizes every file, clean or not, for its suppression comments.
"""

from __future__ import annotations

import ast
import pathlib
import sys

from repro.lint import LintConfig, lint_paths, suppress

FIXTURES = pathlib.Path(__file__).parent / "fixtures"


def _count(monkeypatch, owners, name):
    """Count the calls of ``name`` through each module in ``owners``."""
    original = getattr(owners[0], name)
    calls = []

    def counting(*args, **kwargs):
        calls.append(args)
        return original(*args, **kwargs)

    for owner in owners:
        if getattr(owner, name, None) is original:
            monkeypatch.setattr(owner, name, counting)
    return calls


def _lint_counted(monkeypatch, names):
    parses = _count(monkeypatch, [ast], "parse")
    # Every lint module holding its own reference to the function.
    lint_modules = [suppress] + [
        module
        for key, module in sorted(sys.modules.items())
        if key.startswith("repro.lint") and module is not None
    ]
    tokenizes = _count(monkeypatch, lint_modules, "parse_suppressions")
    result = lint_paths([FIXTURES / name for name in names], isolated=True)
    assert result.errors == []
    return result, len(parses), len(tokenizes)


def test_each_file_parsed_once_and_tokenized_only_with_a_finding(
    monkeypatch,
):
    result, parses, tokenizes = _lint_counted(
        monkeypatch,
        (
            "rep003_bad.py",
            "rep003_good.py",
            "rep004_bad.py",
            "rep004_good.py",
            # Its raw findings are all suppressed, so it is tokenized too.
            "suppressed.py",
        ),
    )
    assert result.files_checked == 5
    assert parses == result.files_checked
    flagged = {finding.path for finding in result.findings}
    assert len(flagged) == 2
    assert tokenizes == len(flagged) + 1


def test_clean_files_are_never_tokenized(monkeypatch):
    result, parses, tokenizes = _lint_counted(
        monkeypatch, ("rep003_good.py", "rep004_good.py")
    )
    assert result.findings == []
    assert parses == result.files_checked == 2
    assert tokenizes == 0


def test_files_sharing_a_module_name_are_all_judged(tmp_path):
    """``a.py`` and ``a/__init__.py`` both map to module ``a``; the model
    keeps both, so the whole-program rules judge both as well."""
    source = "import time\nkey = sorted([1], key=id)\nstamp = time.time()\n"
    (tmp_path / "a").mkdir()
    (tmp_path / "a.py").write_text(source)
    (tmp_path / "a" / "__init__.py").write_text(source)
    result = lint_paths([tmp_path], LintConfig(root=tmp_path))
    assert {(f.path, f.code) for f in result.findings} == {
        (path, code)
        for path in ("a.py", "a/__init__.py")
        for code in ("REP002", "REP004")
    }

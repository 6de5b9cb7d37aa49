"""Command-line entry point.

::

    python -m repro.lint src benchmarks examples
    repro-lint --format=json src
    repro-lint --select REP002,REP003 --isolated tests/lint/fixtures
    repro-lint --format=sarif src > lint.sarif

Exit status: **0** clean, **1** findings, **2** errors (unreadable or
syntactically-invalid files, bad arguments).

Every run reads and parses each file once into one project model over all
the files given, runs every rule (REP002, REP003, REP004, REP007, REP101,
REP104, REP200, REP203, REP204, REP306) over it, and filters the findings
through the per-path configuration and the inline suppressions.
"""

from __future__ import annotations

import argparse
import sys
from pathlib import Path
from typing import List, Optional, Sequence, Set, Tuple

from .analysis import RULES, all_codes, build_project, run_analysis
from .config import LintConfig, config_for_paths, load_config
from .findings import Finding, LintError
from .report import render_json, render_sarif, render_text

__all__ = ["main", "build_parser", "lint_paths", "LintResult"]


class LintResult:
    """Aggregate outcome of one lint run."""

    def __init__(
        self,
        findings: List[Finding],
        errors: List[LintError],
        files_checked: int,
        warnings: Optional[List[str]] = None,
    ) -> None:
        self.findings = findings
        self.errors = errors
        self.files_checked = files_checked
        self.warnings = warnings if warnings is not None else []

    @property
    def exit_code(self) -> int:
        if self.errors:
            return 2
        return 1 if self.findings else 0


def _collect_files(
    paths: Sequence[Path], config: LintConfig
) -> Tuple[List[Path], List[str]]:
    files: List[Path] = []
    warnings: List[str] = []
    seen: Set[Path] = set()
    for path in paths:
        if path.is_dir():
            candidates = sorted(path.rglob("*.py"))
        elif path.suffix != ".py":
            warnings.append(f"{path}: skipped (not a Python file)")
            continue
        else:
            candidates = [path]
        for candidate in candidates:
            resolved = candidate.resolve()
            if resolved in seen:
                continue
            seen.add(resolved)
            if config.is_excluded(config.rel_path(candidate)):
                continue
            files.append(candidate)
    return files, warnings


def lint_paths(
    paths: Sequence[Path],
    config: Optional[LintConfig] = None,
    *,
    isolated: bool = False,
    select: Sequence[str] = (),
    ignore: Sequence[str] = (),
) -> LintResult:
    """Programmatic front door: lint ``paths`` and aggregate the results.

    ``isolated`` skips pyproject discovery (fixtures and tests use this);
    ``select``/``ignore`` are applied on top of whatever the config enables.
    """
    paths = [Path(p) for p in paths]
    if config is None:
        config = LintConfig() if isolated else config_for_paths(paths)

    # A missing path is an error, but it must not hide findings from the
    # paths that do exist: lint those and aggregate both.
    errors: List[LintError] = [
        LintError(path=str(p), message="no such file or directory")
        for p in paths
        if not p.exists()
    ]
    paths = [p for p in paths if p.exists()]

    codes = all_codes()
    files, warnings = _collect_files(paths, config)

    def enabled_for(rel: str) -> Set[str]:
        enabled = config.enabled_codes(rel, codes)
        if select:
            enabled &= set(select)
        enabled -= set(ignore)
        return enabled

    project = build_project([(path, config.rel_path(path)) for path in files])
    findings = run_analysis(project, config, enabled_for)
    errors.extend(project.errors)
    errors.sort()
    return LintResult(findings, errors, len(files), warnings)


def _parse_codes(raw: Optional[str]) -> Tuple[str, ...]:
    if not raw:
        return ()
    return tuple(part.strip() for part in raw.split(",") if part.strip())


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="repro-lint",
        description=(
            "AST-based determinism & protocol-invariant linter for the "
            "epidemic pub-sub reproduction: every rule (REP002, REP003, "
            "REP004, REP007, REP101, REP104, REP200, REP203, REP204, "
            "REP306) runs on one project model parsed from the given files"
        ),
    )
    parser.add_argument("paths", nargs="*", help="files or directories to lint")
    parser.add_argument(
        "--format",
        choices=["text", "json", "sarif"],
        default="text",
        help="output format (default: text)",
    )
    parser.add_argument(
        "--select",
        metavar="CODES",
        help="comma-separated rule codes to run (default: all)",
    )
    parser.add_argument(
        "--ignore",
        metavar="CODES",
        help="comma-separated rule codes to skip",
    )
    parser.add_argument(
        "--config",
        metavar="PYPROJECT",
        help="explicit pyproject.toml to read [tool.repro-lint] from",
    )
    parser.add_argument(
        "--isolated",
        action="store_true",
        help="ignore any pyproject.toml configuration",
    )
    parser.add_argument(
        "--list-rules",
        action="store_true",
        help="print every rule code with its summary and exit",
    )
    return parser


def main(argv: Optional[Sequence[str]] = None) -> int:
    parser = build_parser()
    args = parser.parse_args(argv)

    if args.list_rules:
        for rule in RULES:
            print(f"{rule.code}  {rule.name}: {rule.summary}")
        return 0

    if not args.paths:
        parser.error("no paths given (try: repro-lint src benchmarks)")

    select = _parse_codes(args.select)
    ignore = _parse_codes(args.ignore)
    known = all_codes()
    unknown = [c for c in (*select, *ignore) if c not in known]
    if unknown:
        parser.error(
            f"unknown rule code(s): {', '.join(unknown)} "
            f"(known: {', '.join(known)})"
        )
    config: Optional[LintConfig] = None
    try:
        if args.config:
            config_path = Path(args.config)
            if not config_path.is_file():
                print(
                    f"error: config file not found: {config_path}", file=sys.stderr
                )
                return 2
            config = load_config(config_path)

        result = lint_paths(
            [Path(p) for p in args.paths],
            config,
            isolated=args.isolated,
            select=select,
            ignore=ignore,
        )
    except RuntimeError as exc:  # no TOML parser on this interpreter
        print(f"error: {exc}", file=sys.stderr)
        return 2

    for warning in result.warnings:
        print(f"warning: {warning}", file=sys.stderr)

    if args.format == "json":
        print(render_json(result.findings, result.errors, result.files_checked))
    elif args.format == "sarif":
        print(render_sarif(result.findings, result.errors, result.files_checked))
    else:
        print(render_text(result.findings, result.errors, result.files_checked))
    return result.exit_code


if __name__ == "__main__":  # pragma: no cover - exercised via __main__.py
    sys.exit(main())

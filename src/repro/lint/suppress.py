"""Inline suppression comments.

Two forms are recognised, both anchored on a ``repro-lint:`` marker inside a
comment:

* ``# repro-lint: disable=REP003`` — suppress the listed codes (comma
  separated) on the physical line carrying the comment.  A violation is
  suppressed when the comment sits on *any* line its node spans, so the
  directive may ride on the closing paren of a multi-line call.
* ``# repro-lint: disable-file=REP002`` — suppress the listed codes for the
  whole file.  May appear on any line, conventionally in the module header.

Omitting the ``=CODES`` part (``# repro-lint: disable``) suppresses every
rule.  Suppressions are parsed from the token stream, so a ``repro-lint:``
marker inside a string literal is ignored.

Decorated definitions get one extra courtesy: some violations are attributed
to a *decorator* line (the node of ``@lru_cache(maxsize=None)`` starts on
the ``@`` line, not on ``def``), yet the natural place to write the
directive is the ``def``/``class`` line itself.  When the parsed tree is
supplied, decorator lines *redirect* to their definition line, so a
``# repro-lint: disable=…`` on the ``def`` line also covers findings
anchored on the decorators above it.
"""

from __future__ import annotations

import ast
import io
import re
import tokenize
from typing import Dict, Optional, Set

__all__ = ["SuppressionMap", "parse_suppressions"]

_ALL = "*"
_MARKER = re.compile(
    r"#\s*repro-lint:\s*(?P<kind>disable(?:-file)?)\s*(?:=\s*(?P<codes>[A-Z0-9_,\s]+))?"
)


class SuppressionMap:
    """Line- and file-level suppressions for one source file."""

    def __init__(self) -> None:
        self.by_line: Dict[int, Set[str]] = {}
        self.file_level: Set[str] = set()
        #: decorator line → the ``def``/``class`` line it belongs to; a
        #: directive on the definition line covers these lines too.
        self.redirects: Dict[int, int] = {}

    def add_line(self, line: int, codes: Set[str]) -> None:
        self.by_line.setdefault(line, set()).update(codes)

    def add_file(self, codes: Set[str]) -> None:
        self.file_level.update(codes)

    def is_suppressed_span(self, code: str, start: int, end: int) -> bool:
        """True if ``code`` is suppressed on any line in ``start..end``."""
        if _ALL in self.file_level or code in self.file_level:
            return True
        for line, codes in self.by_line.items():
            if start <= line <= end and (_ALL in codes or code in codes):
                return True
        for deco_line, def_line in self.redirects.items():
            if start <= deco_line <= end:
                codes = self.by_line.get(def_line, set())
                if _ALL in codes or code in codes:
                    return True
        return False


def _parse_codes(raw: "str | None") -> Set[str]:
    if raw is None:
        return {_ALL}
    codes = {part.strip() for part in raw.split(",") if part.strip()}
    return codes or {_ALL}


def parse_suppressions(
    source: str, tree: Optional[ast.AST] = None
) -> SuppressionMap:
    """Extract suppression directives from ``source``.

    Tokenisation errors are swallowed: a file that does not tokenise will
    already be reported as a syntax error by the walker, and a best-effort
    (possibly empty) map is fine for it.

    When ``tree`` is given, decorator lines of each decorated definition
    are recorded as redirects to the ``def``/``class`` line, so a directive
    on the definition line also suppresses decorator-anchored findings.
    """
    suppressions = SuppressionMap()
    try:
        tokens = tokenize.generate_tokens(io.StringIO(source).readline)
        for token in tokens:
            if token.type != tokenize.COMMENT:
                continue
            match = _MARKER.search(token.string)
            if match is None:
                continue
            codes = _parse_codes(match.group("codes"))
            if match.group("kind") == "disable-file":
                suppressions.add_file(codes)
            else:
                suppressions.add_line(token.start[0], codes)
    except tokenize.TokenError:
        pass
    if tree is not None:
        for node in ast.walk(tree):
            decorators = getattr(node, "decorator_list", None)
            if not decorators:
                continue
            def_line = node.lineno
            first = min(d.lineno for d in decorators)
            for line in range(first, def_line):
                suppressions.redirects[line] = def_line
    return suppressions

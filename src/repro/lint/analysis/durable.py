"""REP306: durable artifacts are written via write-then-rename.

A resumed campaign trusts every journal record it finds on disk, so a
write torn by ``kill -9`` would silently corrupt the resume.  This rule
checks the declared durable modules for the write-to-temp-then-rename
idiom; it is inert without ``[tool.repro-lint.durable]``.
"""

from __future__ import annotations

import ast
from typing import List, Optional

from ..rules import AddFn, Rule
from .arch_rules import ArchContext
from .model import ModuleInfo, dotted_parts

__all__ = ["NonAtomicWriteRule"]


class NonAtomicWriteRule(Rule):
    """REP306: durable artifacts are written via write-then-rename.

    The registry of durable modules lives in ``[tool.repro-lint.durable]``
    (path or dotted-name fnmatch patterns); without it the rule is inert.
    A write call (``open`` in a ``w``/``a``/``x`` mode, ``.write_text``/
    ``.write_bytes``, ``json.dump``/``pickle.dump``) inside a durable
    module must share its scope — the enclosing function, or the module
    body for top-level code — with a rename (``os.replace``/``os.rename``/
    ``shutil.move`` or a one-argument ``.replace(...)``/``.rename(...)``):
    the write-to-temp-then-rename idiom that makes a ``kill -9`` mid-write
    leave either the old artifact or the new one, never a torn file.
    """

    code = "REP306"
    name = "non-atomic-write"
    summary = (
        "file written in a declared durable module with no rename in the "
        "same scope; a crash mid-write leaves a torn artifact — write to "
        "a temporary path and os.replace() it into place"
    )

    _OPEN_FUNCS = frozenset({"open", "io.open"})
    _WRITE_METHODS = frozenset({"write_text", "write_bytes"})
    _DUMP_FUNCS = frozenset({"json.dump", "pickle.dump", "marshal.dump"})
    _RENAME_FUNCS = frozenset({"os.replace", "os.rename", "shutil.move"})
    _RENAME_METHODS = frozenset({"replace", "rename"})
    _WRITE_MODES = "wax"

    def run(self, ctx: ArchContext, add: AddFn) -> None:
        durable = ctx.config.durable
        if not durable.modules:
            return
        for name in sorted(ctx.project.modules):
            module = ctx.project.modules[name]
            if durable.is_durable(module.rel, module.name):
                self._scan_scope(module, list(module.tree.body), add)

    # -- scope analysis -------------------------------------------------
    def _scan_scope(
        self, module: ModuleInfo, body: List[ast.AST], add: AddFn
    ) -> None:
        """Check one scope's statements; recurse into nested functions.

        A function containing both the write and the rename (the atomic
        helper itself) is legal; a bare write whose rename lives in some
        *other* scope is exactly the torn-artifact hazard REP306 exists
        to flag, so scopes are judged independently.
        """
        writes: List[tuple] = []
        renamed = False
        stack = list(body)
        nested: List[ast.AST] = []
        while stack:
            node = stack.pop()
            if isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef,
                                 ast.Lambda)):
                nested.append(node)
                continue
            if isinstance(node, ast.Call):
                what = self._write_kind(module, node)
                if what is not None:
                    writes.append((node, what))
                if self._is_rename(module, node):
                    renamed = True
            stack.extend(ast.iter_child_nodes(node))
        if not renamed:
            for call, what in writes:
                add(
                    module,
                    call,
                    self.code,
                    f"{module.name} is a declared durable module but {what} "
                    "has no os.replace/rename in its scope; a crash "
                    "mid-write leaves a torn artifact on disk — write the "
                    "full payload to a temporary path and atomically "
                    "rename it into place",
                )
        for fn in nested:
            fn_body = fn.body if isinstance(fn.body, list) else [fn.body]
            self._scan_scope(module, list(fn_body), add)

    # -- call classification --------------------------------------------
    @staticmethod
    def _resolve(module: ModuleInfo, node: ast.expr) -> Optional[str]:
        parts = dotted_parts(node)
        if not parts:
            return None
        head = module.imports.get(parts[0], parts[0])
        return ".".join([head, *parts[1:]])

    def _write_kind(
        self, module: ModuleInfo, node: ast.Call
    ) -> Optional[str]:
        func = node.func
        target = self._resolve(module, func)
        is_open_func = target in self._OPEN_FUNCS
        is_open_method = (
            not is_open_func
            and isinstance(func, ast.Attribute)
            and func.attr == "open"
        )
        if is_open_func or is_open_method:
            # builtin open(path, mode); Path.open(mode) has no path arg.
            mode = self._literal_mode(node, 0 if is_open_method else 1)
            if mode is not None and mode[:1] in self._WRITE_MODES:
                return f'open(..., "{mode}")'
            return None
        if isinstance(func, ast.Attribute) and func.attr in self._WRITE_METHODS:
            return f".{func.attr}(...)"
        if target in self._DUMP_FUNCS:
            return f"{target}(...)"
        return None

    @staticmethod
    def _literal_mode(node: ast.Call, index: int) -> Optional[str]:
        mode: Optional[ast.expr] = (
            node.args[index] if len(node.args) > index else None
        )
        for keyword in node.keywords:
            if keyword.arg == "mode":
                mode = keyword.value
        if isinstance(mode, ast.Constant) and isinstance(mode.value, str):
            return mode.value
        return None

    def _is_rename(self, module: ModuleInfo, node: ast.Call) -> bool:
        if self._resolve(module, node.func) in self._RENAME_FUNCS:
            return True
        func = node.func
        # Path.replace(target)/Path.rename(target) take exactly one
        # argument; str.replace(old, new) takes two, so it never counts.
        return (
            isinstance(func, ast.Attribute)
            and func.attr in self._RENAME_METHODS
            and len(node.args) == 1
            and not node.keywords
        )

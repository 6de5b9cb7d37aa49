"""The project model: modules, classes, functions, and name resolution.

The per-file linter (:mod:`repro.lint.rules`) reasons about one tree at a
time; the whole-program rules need to know *what a name means across the
project*: which class a base name refers to, which function a call resolves
to, which methods a class inherits.  This module builds
that model in one pass over the analyzed files:

* :class:`ModuleInfo` — one parsed file: import aliases (absolute *and*
  relative imports resolved to canonical dotted names), top-level functions,
  classes.
* :class:`ClassInfo` / :class:`FunctionInfo` — the class and callable
  records.
* :class:`Project` — the index over everything, plus the resolution helpers
  the rules use: ``resolve_name`` (local name → project symbol),
  ``lookup`` (dotted name → class/function, chasing re-exports), and
  ``mro_method`` (method lookup through the class hierarchy).

Everything is syntactic; files that fail to parse are skipped (the per-file
walker already reports them as errors).
"""

from __future__ import annotations

import ast
from pathlib import Path
from typing import Dict, List, Optional, Sequence, Set, Tuple, Union

__all__ = [
    "FunctionInfo",
    "ClassInfo",
    "ModuleInfo",
    "Project",
    "build_project",
    "dotted_parts",
]

FunctionNode = Union[ast.FunctionDef, ast.AsyncFunctionDef]


def dotted_parts(node: ast.expr) -> Optional[List[str]]:
    """``a.b.c`` → ``["a", "b", "c"]``; ``None`` for anything else."""
    parts: List[str] = []
    while isinstance(node, ast.Attribute):
        parts.append(node.attr)
        node = node.value
    if not isinstance(node, ast.Name):
        return None
    parts.append(node.id)
    parts.reverse()
    return parts


def _module_name_for(rel: str) -> str:
    """Dotted module name for a repo-relative POSIX path.

    ``src/repro/pubsub/cache.py`` → ``repro.pubsub.cache``;
    ``benchmarks/record.py`` → ``benchmarks.record``; package
    ``__init__.py`` files name the package itself.
    """
    parts = rel.split("/")
    if parts and parts[0] == "src":
        parts = parts[1:]
    if parts and parts[-1].endswith(".py"):
        parts[-1] = parts[-1][: -len(".py")]
    if parts and parts[-1] == "__init__":
        parts = parts[:-1]
    return ".".join(p for p in parts if p) or rel


class FunctionInfo:
    """One ``def`` — a module-level function or a method."""

    __slots__ = ("name", "qualname", "node", "module", "cls")

    def __init__(
        self,
        name: str,
        qualname: str,
        node: FunctionNode,
        module: "ModuleInfo",
        cls: "Optional[ClassInfo]" = None,
    ) -> None:
        self.name = name
        self.qualname = qualname
        self.node = node
        self.module = module
        self.cls = cls

    def __repr__(self) -> str:  # pragma: no cover - debug aid
        return f"<FunctionInfo {self.qualname}>"


class ClassInfo:
    """One ``class`` statement with its methods and (resolved) bases."""

    __slots__ = ("name", "qualname", "node", "module", "base_names", "bases",
                 "methods")

    def __init__(
        self, name: str, qualname: str, node: ast.ClassDef, module: "ModuleInfo"
    ) -> None:
        self.name = name
        self.qualname = qualname
        self.node = node
        self.module = module
        #: canonical dotted names of the declared bases (resolution of the
        #: *expressions*; may name classes outside the analyzed set).
        self.base_names: List[str] = []
        #: bases resolved to in-project ClassInfo records (second pass).
        self.bases: List[ClassInfo] = []
        self.methods: Dict[str, FunctionInfo] = {}

    def mro(self) -> List["ClassInfo"]:
        """Linearized ancestry (self first, DFS, duplicates dropped)."""
        seen: Set[str] = set()
        order: List[ClassInfo] = []
        stack: List[ClassInfo] = [self]
        while stack:
            cls = stack.pop(0)
            if cls.qualname in seen:
                continue
            seen.add(cls.qualname)
            order.append(cls)
            stack = list(cls.bases) + stack
        return order

    def mro_method(self, name: str) -> Optional[FunctionInfo]:
        for cls in self.mro():
            method = cls.methods.get(name)
            if method is not None:
                return method
        return None

    def ancestry_names(self) -> Set[str]:
        """Every canonical base name reachable, including unresolved ones."""
        names: Set[str] = set()
        for cls in self.mro():
            names.add(cls.qualname)
            names.update(cls.base_names)
        return names

    def __repr__(self) -> str:  # pragma: no cover - debug aid
        return f"<ClassInfo {self.qualname}>"


class ModuleInfo:
    """One analyzed file."""

    __slots__ = ("path", "rel", "name", "tree", "source", "imports",
                 "functions", "classes")

    def __init__(
        self, path: Path, rel: str, name: str, tree: ast.Module, source: str
    ) -> None:
        self.path = path
        self.rel = rel
        self.name = name
        self.tree = tree
        self.source = source
        #: local alias → canonical dotted target ("np" → "numpy",
        #: "Message" → "repro.network.message.Message").
        self.imports: Dict[str, str] = {}
        self.functions: Dict[str, FunctionInfo] = {}
        self.classes: Dict[str, ClassInfo] = {}

    # ------------------------------------------------------------------
    def _package(self, level: int) -> str:
        """The package ``level`` dots refer to in a relative import."""
        parts = self.name.split(".")
        if not self.rel.endswith("__init__.py"):
            parts = parts[:-1]
        cut = level - 1
        if cut:
            parts = parts[:-cut] if cut < len(parts) else []
        return ".".join(parts)

    def collect_imports(self) -> None:
        for node in ast.walk(self.tree):
            if isinstance(node, ast.Import):
                for alias in node.names:
                    local = alias.asname or alias.name.split(".")[0]
                    self.imports[local] = alias.name if alias.asname else (
                        alias.name.split(".")[0]
                    )
            elif isinstance(node, ast.ImportFrom):
                if node.level:
                    base = self._package(node.level)
                    if node.module:
                        base = f"{base}.{node.module}" if base else node.module
                elif node.module:
                    base = node.module
                else:  # pragma: no cover - "from import" without module
                    continue
                for alias in node.names:
                    if alias.name == "*":
                        continue
                    self.imports[alias.asname or alias.name] = (
                        f"{base}.{alias.name}" if base else alias.name
                    )

    def resolve_parts(self, parts: Sequence[str]) -> str:
        """Canonicalize a dotted name's head through the import aliases."""
        head, rest = parts[0], list(parts[1:])
        resolved = self.imports.get(head, head)
        return ".".join([resolved] + rest)

    def resolve_expr(self, node: ast.expr) -> Optional[str]:
        parts = dotted_parts(node)
        if parts is None:
            return None
        return self.resolve_parts(parts)

    def resolve_call(self, call: ast.Call) -> Optional[str]:
        return self.resolve_expr(call.func)

    def __repr__(self) -> str:  # pragma: no cover - debug aid
        return f"<ModuleInfo {self.name} ({self.rel})>"


class Project:
    """Everything the whole-program rules look at."""

    def __init__(self) -> None:
        self.modules: Dict[str, ModuleInfo] = {}
        self.classes: Dict[str, ClassInfo] = {}
        self.functions: Dict[str, FunctionInfo] = {}

    # ------------------------------------------------------------------
    def lookup(self, qualname: str, _depth: int = 0) -> Union[
        ClassInfo, FunctionInfo, None
    ]:
        """Find the class/function a canonical dotted name refers to.

        Chases re-exports: ``repro.parallel.ProcessExecutor`` resolves
        through ``repro/parallel/__init__.py``'s ``from .executor import
        ProcessExecutor`` to the defining module.
        """
        if _depth > 8:  # re-export cycle guard
            return None
        hit = self.classes.get(qualname) or self.functions.get(qualname)
        if hit is not None:
            return hit
        parts = qualname.split(".")
        for i in range(len(parts) - 1, 0, -1):
            module = self.modules.get(".".join(parts[:i]))
            if module is None:
                continue
            symbol, rest = parts[i], parts[i + 1:]
            if not rest:
                if symbol in module.classes:
                    return module.classes[symbol]
                if symbol in module.functions:
                    return module.functions[symbol]
            if symbol in module.imports:
                target = ".".join([module.imports[symbol]] + rest)
                return self.lookup(target, _depth + 1)
            return None
        return None

    def resolve_name(
        self, module: ModuleInfo, parts: Sequence[str]
    ) -> Union[ClassInfo, FunctionInfo, None]:
        """Resolve a local dotted name used inside ``module``."""
        head = parts[0]
        if len(parts) == 1:
            if head in module.functions:
                return module.functions[head]
            if head in module.classes:
                return module.classes[head]
        return self.lookup(module.resolve_parts(parts))


def _collect_module(module: ModuleInfo) -> None:
    module.collect_imports()
    for node in module.tree.body:
        if isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef)):
            qualname = f"{module.name}.{node.name}"
            module.functions[node.name] = FunctionInfo(
                node.name, qualname, node, module
            )
        elif isinstance(node, ast.ClassDef):
            qualname = f"{module.name}.{node.name}"
            cls = ClassInfo(node.name, qualname, node, module)
            for base in node.bases:
                resolved = module.resolve_expr(base)
                if resolved is not None:
                    cls.base_names.append(resolved)
            for item in node.body:
                if isinstance(item, (ast.FunctionDef, ast.AsyncFunctionDef)):
                    cls.methods[item.name] = FunctionInfo(
                        item.name,
                        f"{qualname}.{item.name}",
                        item,
                        module,
                        cls,
                    )
            module.classes[node.name] = cls


def build_project(files: Sequence[Tuple[Path, str]]) -> Project:
    """Parse ``(path, rel_path)`` pairs into a linked :class:`Project`.

    Unreadable or syntactically-invalid files are skipped silently — the
    per-file walker has already reported them as :class:`LintError`\\ s.
    """
    project = Project()
    for path, rel in files:
        try:
            source = path.read_text(encoding="utf-8")
            tree = ast.parse(source, filename=str(path))
        except (OSError, UnicodeDecodeError, SyntaxError):
            continue
        module = ModuleInfo(path, rel, _module_name_for(rel), tree, source)
        _collect_module(module)
        project.modules[module.name] = module
    for module in project.modules.values():
        project.classes.update(
            {cls.qualname: cls for cls in module.classes.values()}
        )
        project.functions.update(
            {fn.qualname: fn for fn in module.functions.values()}
        )
    # Second pass: link base-class references across modules.  A bare base
    # name ("class Child(Base)") refers to the defining module's namespace.
    for cls in project.classes.values():
        for base_name in cls.base_names:
            base = project.lookup(base_name)
            if base is None and "." not in base_name:
                base = project.lookup(f"{cls.module.name}.{base_name}")
            if isinstance(base, ClassInfo):
                cls.bases.append(base)
    return project

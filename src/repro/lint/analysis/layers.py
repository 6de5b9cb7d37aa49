"""The declared layer map: module→layer resolution and import edges.

The architecture the analyzer enforces is *declared*, not inferred: the
``[tool.repro-lint.layers]`` block of ``pyproject.toml`` names the layers
bottom-to-top (``sim`` → ``network`` → ``protocol`` → ``scenarios``) and
maps each to the module-name prefixes it owns.  This module resolves every
analyzed module to its layer and extracts the import edges between layers,
so that REP200 can flag **upward** imports (a lower layer importing a
higher one — the engine must never know about the protocol built on it).

Imports under an ``if TYPE_CHECKING:`` guard are annotation-only and are
excluded from the edge set (they impose no runtime coupling).
"""

from __future__ import annotations

import ast
from typing import Iterator, List, Optional

from ..config import LayersConfig
from .model import ModuleInfo, Project

__all__ = ["ImportEdge", "LayerMap", "build_layer_map"]


class ImportEdge:
    """One module-level import: ``source`` imports ``target``."""

    __slots__ = ("source", "target", "node", "source_layer", "target_layer")

    def __init__(
        self,
        source: ModuleInfo,
        target: str,
        node: ast.stmt,
        source_layer: Optional[str],
        target_layer: Optional[str],
    ) -> None:
        self.source = source
        self.target = target
        self.node = node
        self.source_layer = source_layer
        self.target_layer = target_layer


class LayerMap:
    """Every analyzed module resolved against the declared layer config."""

    def __init__(self, config: LayersConfig, project: Project) -> None:
        self.config = config
        self.project = project
        self.edges: List[ImportEdge] = []
        for module in project.modules.values():
            self.edges.extend(self._module_edges(module))

    # ------------------------------------------------------------------
    def layer_of_module(self, module_name: str) -> Optional[str]:
        layer = self.config.layer_of(module_name)
        return layer if layer in self.config.order else None

    def is_confined(self, module_name: str) -> bool:
        """True when ``module_name`` lives in a confined layer."""
        return self.layer_of_module(module_name) in set(self.config.confined)

    def violations(self) -> Iterator[ImportEdge]:
        """Edges importing *upward*: a lower layer reaching a higher one."""
        for edge in self.edges:
            if edge.source_layer is None or edge.target_layer is None:
                continue
            if self.config.index_of(edge.target_layer) > self.config.index_of(
                edge.source_layer
            ):
                yield edge

    # ------------------------------------------------------------------
    def _module_edges(self, module: ModuleInfo) -> List[ImportEdge]:
        source_layer = self.layer_of_module(module.name)
        edges: List[ImportEdge] = []
        for node in _runtime_imports(module.tree):
            for target in self._import_targets(module, node):
                if target == module.name:
                    continue
                edges.append(
                    ImportEdge(
                        module,
                        target,
                        node,
                        source_layer,
                        self.layer_of_module(target),
                    )
                )
        return edges

    def _import_targets(
        self, module: ModuleInfo, node: ast.stmt
    ) -> List[str]:
        """The *module* names one import statement binds."""
        targets: List[str] = []
        if isinstance(node, ast.Import):
            targets.extend(alias.name for alias in node.names)
        elif isinstance(node, ast.ImportFrom):
            if node.level:
                base = module._package(node.level)
                if node.module:
                    base = f"{base}.{node.module}" if base else node.module
            else:
                base = node.module or ""
            if not base:
                return targets
            for alias in node.names:
                # ``from pkg import sub`` may bind a submodule; prefer the
                # most specific analyzed module, falling back to the package.
                candidate = f"{base}.{alias.name}"
                if candidate in self.project.modules:
                    targets.append(candidate)
                else:
                    targets.append(base)
        return targets


def _runtime_imports(tree: ast.Module) -> Iterator[ast.stmt]:
    """Import statements outside ``if TYPE_CHECKING:`` guards."""

    def walk(body: List[ast.stmt]) -> Iterator[ast.stmt]:
        for stmt in body:
            if isinstance(stmt, (ast.Import, ast.ImportFrom)):
                yield stmt
            elif isinstance(stmt, ast.If) and _is_type_checking(stmt.test):
                yield from walk(stmt.orelse)
            elif isinstance(
                stmt,
                (
                    ast.If,
                    ast.Try,
                    ast.With,
                    ast.For,
                    ast.While,
                    ast.FunctionDef,
                    ast.AsyncFunctionDef,
                    ast.ClassDef,
                ),
            ):
                for child_body in _bodies(stmt):
                    yield from walk(child_body)

    yield from walk(tree.body)


def _bodies(stmt: ast.stmt) -> Iterator[List[ast.stmt]]:
    for field in ("body", "orelse", "finalbody"):
        body = getattr(stmt, field, None)
        if body:
            yield body
    for handler in getattr(stmt, "handlers", ()):
        yield handler.body


def _is_type_checking(test: ast.expr) -> bool:
    if isinstance(test, ast.Name):
        return test.id == "TYPE_CHECKING"
    if isinstance(test, ast.Attribute):
        return test.attr == "TYPE_CHECKING"
    return False


def build_layer_map(config: LayersConfig, project: Project) -> LayerMap:
    return LayerMap(config, project)

"""The whole-program protocol rules, REP101 and REP104.

Where the per-file rules police what one file *says*, these rules police
cross-module contracts:

========  ==============================================================
REP101    shared forward ``Message`` mutated after send/schedule escape
REP104    non-module-level callable submitted to an experiment executor
========  ==============================================================

Each rule is a singleton with ``code``/``name``/``summary`` (mirroring the
per-file family) and a ``run(project, add)`` hook; ``add(module, node, code,
message)`` records one finding.  Findings then flow through the exact same
per-path configuration and inline-suppression machinery as REP0xx.
"""

from __future__ import annotations

import ast
from typing import Callable, List, Optional, Set, Tuple

from .model import ModuleInfo, Project, dotted_parts

__all__ = ["AnalysisRule", "ANALYSIS_RULES"]

AddFn = Callable[[ModuleInfo, ast.AST, str, str], None]

#: Attribute names whose call hands a value to the network layer.
_SEND_ATTRS = frozenset({"send", "send_oob", "transmit", "send_gossip"})
#: Attribute names whose call hands a value to the simulation calendar.
_SCHEDULE_ATTRS = frozenset(
    {"schedule", "schedule_at", "schedule_call", "schedule_call_at"}
)
#: Constructors/factories whose result is an experiment executor or pool.
_EXECUTOR_FACTORIES = frozenset(
    {"ProcessExecutor", "SerialExecutor", "get_executor", "ProcessPoolExecutor"}
)

def _walk_functions(module: ModuleInfo):
    """Yield (function-ish node, enclosing ClassInfo or None)."""
    for fn in module.functions.values():
        yield fn.node, None
    for cls in module.classes.values():
        for method in cls.methods.values():
            yield method.node, cls


def _pos(node: ast.AST) -> Tuple[int, int]:
    return (getattr(node, "lineno", 0), getattr(node, "col_offset", 0))


class AnalysisRule:
    """Base class for whole-program rules."""

    code: str = ""
    name: str = ""
    summary: str = ""

    def run(self, project: Project, add: AddFn) -> None:
        raise NotImplementedError


class MessageAliasRule(AnalysisRule):
    """REP101: no mutation of a ``Message`` after it escaped into a send."""

    code = "REP101"
    name = "post-send-message-mutation"
    summary = (
        "Message mutated after being handed to a send/schedule call; the "
        "network shares one envelope, so the mutation races the delivery"
    )

    def run(self, project: Project, add: AddFn) -> None:
        for module in project.modules.values():
            for func, _cls in _walk_functions(module):
                self._check_function(module, func, add)

    @staticmethod
    def _root_name(node: ast.expr) -> Optional[str]:
        while isinstance(node, (ast.Attribute, ast.Subscript)):
            node = node.value
        return node.id if isinstance(node, ast.Name) else None

    def _check_function(self, module: ModuleInfo, func: ast.AST, add: AddFn) -> None:
        # Local names bound to a Message(...) construction, and local
        # aliases of bound send methods (``network_send = self.network.send``).
        send_aliases: Set[str] = set()
        events: List[Tuple[Tuple[int, int], str, str, ast.AST]] = []
        message_locals: Set[str] = set()
        for node in ast.walk(func):
            if isinstance(node, ast.Assign):
                value = node.value
                if isinstance(value, ast.Call):
                    resolved = module.resolve_call(value)
                    if resolved and resolved.split(".")[-1] == "Message":
                        for target in node.targets:
                            if isinstance(target, ast.Name):
                                message_locals.add(target.id)
                                events.append(
                                    (_pos(node), "construct", target.id, node)
                                )
                else:
                    parts = dotted_parts(value)
                    if parts and parts[-1] in _SEND_ATTRS:
                        for target in node.targets:
                            if isinstance(target, ast.Name):
                                send_aliases.add(target.id)
        if not message_locals:
            return
        for node in ast.walk(func):
            if isinstance(node, ast.Call):
                func_expr = node.func
                is_escape = (
                    isinstance(func_expr, ast.Attribute)
                    and func_expr.attr in (_SEND_ATTRS | _SCHEDULE_ATTRS)
                ) or (
                    isinstance(func_expr, ast.Name)
                    and func_expr.id in send_aliases
                )
                if is_escape:
                    for arg in node.args:
                        if isinstance(arg, ast.Name) and arg.id in message_locals:
                            events.append((_pos(node), "escape", arg.id, node))
            elif isinstance(node, (ast.Assign, ast.AugAssign)):
                targets = (
                    node.targets if isinstance(node, ast.Assign) else [node.target]
                )
                for target in targets:
                    if not isinstance(target, (ast.Attribute, ast.Subscript)):
                        continue
                    root = self._root_name(target)
                    if root is not None and root in message_locals:
                        events.append((_pos(node), "mutate", root, node))
        events.sort(key=lambda e: e[0])
        escaped: Set[str] = set()
        for _pos_, kind, name, node in events:
            if kind == "construct":
                escaped.discard(name)
            elif kind == "escape":
                escaped.add(name)
            elif kind == "mutate" and name in escaped:
                add(
                    module,
                    node,
                    self.code,
                    f"'{name}' was handed to a send/schedule call and is "
                    "mutated afterwards; the network holds a reference to the "
                    "same envelope — mutate before sending, or send a copy",
                )


class ExecutorPicklableRule(AnalysisRule):
    """REP104: executor submissions are module-level, closure-free callables."""

    code = "REP104"
    name = "executor-picklable"
    summary = (
        "lambda / nested function / bound method submitted to an experiment "
        "executor; worker processes can only import module-level callables"
    )

    def run(self, project: Project, add: AddFn) -> None:
        for module in project.modules.values():
            for func, _cls in _walk_functions(module):
                self._check_function(project, module, func, add)

    @staticmethod
    def _executor_locals(module: ModuleInfo, func: ast.AST) -> Set[str]:
        names: Set[str] = set()

        def factory(call: ast.expr) -> bool:
            if not isinstance(call, ast.Call):
                return False
            resolved = module.resolve_call(call)
            return bool(
                resolved and resolved.split(".")[-1] in _EXECUTOR_FACTORIES
            )

        for node in ast.walk(func):
            if isinstance(node, ast.Assign) and factory(node.value):
                for target in node.targets:
                    if isinstance(target, ast.Name):
                        names.add(target.id)
            elif isinstance(node, ast.withitem) and factory(node.context_expr):
                if isinstance(node.optional_vars, ast.Name):
                    names.add(node.optional_vars.id)
        return names

    def _check_function(
        self, project: Project, module: ModuleInfo, func: ast.AST, add: AddFn
    ) -> None:
        executor_locals = self._executor_locals(module, func)
        local_defs = {
            sub.name
            for sub in ast.walk(func)
            if isinstance(sub, (ast.FunctionDef, ast.AsyncFunctionDef))
            and sub is not func
        }
        for node in ast.walk(func):
            if not isinstance(node, ast.Call):
                continue
            func_expr = node.func
            if not (
                isinstance(func_expr, ast.Attribute)
                and func_expr.attr in ("map", "submit")
                and node.args
            ):
                continue
            receiver = func_expr.value
            is_executor = (
                isinstance(receiver, ast.Name) and receiver.id in executor_locals
            )
            if not is_executor and isinstance(receiver, ast.Call):
                resolved = module.resolve_call(receiver)
                is_executor = bool(
                    resolved and resolved.split(".")[-1] in _EXECUTOR_FACTORIES
                )
            if not is_executor:
                continue
            submitted = node.args[0]
            problem = self._problem(submitted, local_defs)
            if problem is not None:
                add(
                    module,
                    submitted,
                    self.code,
                    f"{problem} submitted to an experiment executor; "
                    "ProcessExecutor pickles submissions, so they must be "
                    "module-level, closure-free callables",
                )

    @classmethod
    def _problem(
        cls, submitted: ast.expr, local_defs: Set[str]
    ) -> Optional[str]:
        if isinstance(submitted, ast.Lambda):
            return "lambda"
        if isinstance(submitted, ast.Name) and submitted.id in local_defs:
            return f"nested function '{submitted.id}'"
        if (
            isinstance(submitted, ast.Attribute)
            and isinstance(submitted.value, ast.Name)
            and submitted.value.id == "self"
        ):
            return f"bound method 'self.{submitted.attr}'"
        # ``functools.partial`` pickles by reference to the *wrapped*
        # callable, so a partial of a module-level function is fine and
        # must not be flagged; recurse so a partial of a lambda / nested
        # function / bound method is still caught (nested partials too).
        if isinstance(submitted, ast.Call) and cls._is_partial(submitted.func):
            target = submitted.args[0] if submitted.args else None
            if target is None:
                for keyword in submitted.keywords:
                    if keyword.arg == "func":
                        target = keyword.value
                        break
            if target is None:
                return None
            inner = cls._problem(target, local_defs)
            return None if inner is None else f"functools.partial of a {inner}"
        return None

    @staticmethod
    def _is_partial(func_expr: ast.expr) -> bool:
        if isinstance(func_expr, ast.Name):
            return func_expr.id in ("partial", "partialmethod")
        return (
            isinstance(func_expr, ast.Attribute)
            and func_expr.attr in ("partial", "partialmethod")
        )


ANALYSIS_RULES: List[AnalysisRule] = [
    MessageAliasRule(),
    ExecutorPicklableRule(),
]

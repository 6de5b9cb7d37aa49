"""The whole-program rule family, REP100–REP105.

Where REP001–REP007 police what one file *says*, these rules police the
cross-module contracts the hot paths of PR 2 lean on:

========  ==============================================================
REP100    memo backing state mutated without reaching ``_invalidate()``
REP101    shared forward ``Message`` mutated after send/schedule escape
REP102    scheduled callback unresolvable or called with the wrong arity
REP103    RNG constructed outside ``repro/sim/rng.py``
REP104    non-module-level callable submitted to an experiment executor
REP105    recovery subclass skips ``super().__init__`` / bends hook arity
========  ==============================================================

Each rule is a singleton with ``code``/``name``/``summary`` (mirroring the
per-file family) and a ``run(project, add)`` hook; ``add(module, node, code,
message)`` records one finding.  Findings then flow through the exact same
per-path configuration and inline-suppression machinery as REP0xx.
"""

from __future__ import annotations

import ast
from typing import Callable, Dict, List, Optional, Set, Tuple

from .dataflow import InvalidatePaths, mutated_self_attrs, self_attr_reads
from .model import (
    ClassInfo,
    FunctionInfo,
    FunctionNode,
    ModuleInfo,
    Project,
    dotted_parts,
)

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
#: Methods construction-state initializers exempt from REP100.
_CONSTRUCTORS = frozenset({"__init__", "__new__", "__setstate__"})

#: Engine-facing hooks of RecoveryAlgorithm and the positional argument
#: count the engine/dispatcher calls them with (``self`` excluded).
_RECOVERY_HOOKS: Dict[str, int] = {
    "gossip_round": 0,
    "handle_gossip": 2,
    "on_event_received": 2,
    "on_event_published": 1,
    "handle_oob_request": 2,
    "start": 0,
    "stop": 0,
}
_RECOVERY_BASE = "RecoveryAlgorithm"


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


class MemoInvalidateRule(AnalysisRule):
    """REP100: every mutation of memo backing state reaches ``_invalidate``."""

    code = "REP100"
    name = "memo-invalidate"
    summary = (
        "method mutates the backing state of a memoized class without "
        "calling _invalidate() on every path; the memo serves stale results"
    )

    def run(self, project: Project, add: AddFn) -> None:
        for cls in project.classes.values():
            self._check_class(cls, add)

    # -- protocol discovery --------------------------------------------
    def _check_class(self, cls: ClassInfo, add: AddFn) -> None:
        invalidate = cls.methods.get("_invalidate") or cls.mro_method("_invalidate")
        if invalidate is None:
            return
        memo_attrs = mutated_self_attrs(invalidate.node)
        if not memo_attrs:
            return
        # Backing state: what the memo-writing readers compute from.
        all_methods: Dict[str, FunctionInfo] = {}
        for ancestor in reversed(cls.mro()):
            all_methods.update(ancestor.methods)
        backing: Set[str] = set()
        for method in all_methods.values():
            if method.name == "_invalidate" or method.name in _CONSTRUCTORS:
                continue
            if mutated_self_attrs(method.node) & memo_attrs:
                backing |= self_attr_reads(method.node) - memo_attrs
        if not backing:
            return
        guarantees = self._guaranteeing_methods(all_methods)
        for method in cls.methods.values():
            if method.name in _CONSTRUCTORS or method.name == "_invalidate":
                continue
            paths = InvalidatePaths(
                method.node, backing, guarantees
            ).run()
            if paths.violating:
                site = paths.first_mutation or method.node
                attrs = ", ".join(sorted(mutated_self_attrs(method.node) & backing))
                add(
                    cls.module,
                    site,
                    self.code,
                    f"{cls.name}.{method.name}() mutates memo backing state "
                    f"({attrs or 'via alias'}) on a path that never calls "
                    f"_invalidate(); the "
                    f"{'/'.join(sorted(memo_attrs))} memo goes stale",
                )

    @staticmethod
    def _guaranteeing_methods(methods: Dict[str, FunctionInfo]) -> Set[str]:
        """Names of methods guaranteed to invalidate on every path."""
        guarantees: Set[str] = {"_invalidate"}
        changed = True
        while changed:
            changed = False
            for method in methods.values():
                if method.name in guarantees:
                    continue
                paths = InvalidatePaths(method.node, set(), guarantees).run()
                if paths.always_invalidates:
                    guarantees.add(method.name)
                    changed = True
        return guarantees


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


class ScheduleCallbackRule(AnalysisRule):
    """REP102: scheduled callbacks resolve and arities line up."""

    code = "REP102"
    name = "schedule-callback-arity"
    summary = (
        "callback handed to schedule/schedule_call with an argument count "
        "its signature cannot accept; it will raise only when it fires"
    )

    def run(self, project: Project, add: AddFn) -> None:
        for module in project.modules.values():
            for func, cls in _walk_functions(module):
                local_defs = {
                    sub.name: sub
                    for sub in ast.walk(func)
                    if isinstance(sub, (ast.FunctionDef, ast.AsyncFunctionDef))
                    and sub is not func
                }
                for node in ast.walk(func):
                    if isinstance(node, ast.Call):
                        self._check_call(
                            project, module, cls, local_defs, node, add
                        )

    @staticmethod
    def _lambda_arity(node: ast.Lambda) -> Tuple[int, Optional[int]]:
        args = node.args
        positional = list(args.posonlyargs) + list(args.args)
        max_args: Optional[int] = None if args.vararg else len(positional)
        return len(positional) - len(args.defaults), max_args

    def _resolve(
        self,
        project: Project,
        module: ModuleInfo,
        cls: Optional[ClassInfo],
        local_defs: Dict[str, FunctionNode],
        callback: ast.expr,
    ) -> Optional[Tuple[str, int, Optional[int]]]:
        """(label, min_args, max_args) for a resolvable callback."""
        if isinstance(callback, ast.Lambda):
            low, high = self._lambda_arity(callback)
            return "<lambda>", low, high
        if (
            isinstance(callback, ast.Attribute)
            and isinstance(callback.value, ast.Name)
            and callback.value.id == "self"
            and cls is not None
        ):
            method = cls.mro_method(callback.attr)
            if method is None:
                return None
            low, high = method.arity()
            return f"{cls.name}.{callback.attr}", low, high
        if isinstance(callback, ast.Name):
            local = local_defs.get(callback.id)
            if local is not None:
                info = FunctionInfo(callback.id, callback.id, local, module)
                low, high = info.arity()
                return callback.id, low, high
            target = project.resolve_name(module, [callback.id])
            if isinstance(target, FunctionInfo):
                low, high = target.arity()
                return target.qualname, low, high
        return None

    def _check_call(
        self,
        project: Project,
        module: ModuleInfo,
        cls: Optional[ClassInfo],
        local_defs: Dict[str, FunctionNode],
        node: ast.Call,
        add: AddFn,
    ) -> None:
        func = node.func
        attr = func.attr if isinstance(func, ast.Attribute) else (
            func.id if isinstance(func, ast.Name) else None
        )
        if attr not in _SCHEDULE_ATTRS or node.keywords or len(node.args) < 2:
            return
        resolved = self._resolve(project, module, cls, local_defs, node.args[1])
        if resolved is None:
            return
        label, low, high = resolved
        given = len(node.args) - 2
        if given < low or (high is not None and given > high):
            expected = (
                f"{low}+" if high is None
                else str(low) if low == high
                else f"{low}..{high}"
            )
            add(
                module,
                node,
                self.code,
                f"{attr}() passes {given} argument(s) to {label}, which "
                f"takes {expected}; the mismatch raises only when the "
                "calendar fires the callback",
            )


class RngOriginRule(AnalysisRule):
    """REP103: RNGs are constructed in ``repro/sim/rng.py`` and nowhere else."""

    code = "REP103"
    name = "rng-origin"
    summary = (
        "random.Random / numpy RNG constructed outside repro/sim/rng.py; "
        "derive named streams from RandomStreams so seeds stay centralized"
    )

    def run(self, project: Project, add: AddFn) -> None:
        for module in project.modules.values():
            for node in ast.walk(module.tree):
                if not isinstance(node, ast.Call):
                    continue
                resolved = module.resolve_call(node)
                if resolved is None:
                    continue
                if resolved == "random.Random" or resolved.startswith(
                    "numpy.random."
                ):
                    add(
                        module,
                        node,
                        self.code,
                        f"{resolved}(...) constructed outside repro/sim/rng.py; "
                        "every stream must be derived from a RandomStreams "
                        "master seed (stream()/substreams())",
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


class RecoverySubclassRule(AnalysisRule):
    """REP105: recovery subclasses keep the base contract."""

    code = "REP105"
    name = "recovery-subclass-contract"
    summary = (
        "recovery-algorithm subclass skips super().__init__ (timer/stats "
        "never wired) or overrides an engine-facing hook with an "
        "incompatible signature"
    )

    def run(self, project: Project, add: AddFn) -> None:
        for cls in project.classes.values():
            ancestry = cls.ancestry_names() - {cls.qualname}
            if not any(
                name == _RECOVERY_BASE or name.endswith(f".{_RECOVERY_BASE}")
                for name in ancestry
            ):
                continue
            self._check_init(cls, add)
            self._check_hooks(cls, add)

    def _check_init(self, cls: ClassInfo, add: AddFn) -> None:
        init = cls.methods.get("__init__")
        if init is None:
            return
        for node in ast.walk(init.node):
            if (
                isinstance(node, ast.Call)
                and isinstance(node.func, ast.Attribute)
                and node.func.attr == "__init__"
            ):
                base = node.func.value
                if isinstance(base, ast.Call) and isinstance(
                    base.func, ast.Name
                ) and base.func.id == "super":
                    return
                if dotted_parts(base) is not None:  # Base.__init__(self, ...)
                    return
        add(
            cls.module,
            init.node,
            self.code,
            f"{cls.name}.__init__ never calls super().__init__; the gossip "
            "timer, stats, and dispatcher attachment are wired there",
        )

    def _check_hooks(self, cls: ClassInfo, add: AddFn) -> None:
        for hook, engine_args in _RECOVERY_HOOKS.items():
            method = cls.methods.get(hook)
            if method is None:
                continue
            low, high = method.arity()
            if engine_args < low or (high is not None and engine_args > high):
                add(
                    cls.module,
                    method.node,
                    self.code,
                    f"{cls.name}.{hook}() takes {low}"
                    f"{'' if high == low else '..' + ('*' if high is None else str(high))}"
                    f" argument(s) but the engine calls it with {engine_args}; "
                    "keep the base signature",
                )


ANALYSIS_RULES: List[AnalysisRule] = [
    MemoInvalidateRule(),
    MessageAliasRule(),
    ScheduleCallbackRule(),
    RngOriginRule(),
    ExecutorPicklableRule(),
    RecoverySubclassRule(),
]

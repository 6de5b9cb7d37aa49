"""The per-file determinism rules: REP003, REP004 and REP007.

Each rule is a singleton object with a ``code``, a ``name``, a one-line
``summary``, and one or more ``check_*`` hooks the walker calls as it visits
the AST.  Hooks receive the :class:`~repro.lint.walker.FileContext` (import
aliases, path info), the node, and an ``add(code, node, message)`` callback.

Rules are syntactic: they reason about what the source *says*, not about
runtime types.  That keeps them fast and dependency-free, at the cost of the
occasional false positive — which is what inline suppression
(``# repro-lint: disable=REPnnn``) is for.
"""

from __future__ import annotations

import ast
import fnmatch
from typing import Callable, FrozenSet, Iterator, List, Optional

__all__ = ["Rule", "RULES", "all_codes", "set_bindings"]

AddFn = Callable[[str, ast.AST, str], None]

#: Set-algebra methods whose result has no defined iteration order.
_SET_ALGEBRA_METHODS = frozenset(
    {"union", "intersection", "difference", "symmetric_difference"}
)
#: Set-algebra operators (``a | b``, ``a & b``, ``a - b``, ``a ^ b``).
_SET_OPS = (ast.BitOr, ast.BitAnd, ast.Sub, ast.BitXor)


class Rule:
    """Base class: identifies a rule; hooks default to no-ops."""

    code: str = ""
    name: str = ""
    summary: str = ""

    def check_call(self, ctx, node: ast.Call, add: AddFn) -> None:
        pass

    def check_iter(self, ctx, node: ast.AST, iter_node: ast.expr, add: AddFn) -> None:
        pass

    def check_function(self, ctx, node: ast.AST, add: AddFn) -> None:
        pass

    def check_compare(self, ctx, node: ast.Compare, add: AddFn) -> None:
        pass


def _set_expression(ctx, node: ast.expr) -> Optional[str]:
    """What ``node`` is when it syntactically builds a set, else ``None``."""
    if isinstance(node, (ast.Set, ast.SetComp)):
        return "a set literal/comprehension"
    if isinstance(node, ast.Call):
        target = ctx.resolve_call(node)
        if target in ("set", "frozenset"):
            return f"{target}(...)"
        if (
            isinstance(node.func, ast.Attribute)
            and node.func.attr in _SET_ALGEBRA_METHODS
        ):
            return f".{node.func.attr}(...)"
    return None


def set_bindings(ctx, scope: ast.AST) -> FrozenSet[str]:
    """The names ``scope`` binds to a set, for REP003.

    For a function: the locals assigned a set anywhere in its body
    (``targets = set(peers)``).  For a class: the ``self`` attributes any
    of its methods assigns a set (``self.peers = set()``).  The walker
    keeps the bindings of the enclosing function and class current.
    """
    if isinstance(scope, ast.ClassDef):
        return frozenset(
            target.attr
            for item in scope.body
            if isinstance(item, (ast.FunctionDef, ast.AsyncFunctionDef))
            for target in _set_targets(ctx, item)
            if _is_self_attr(target)
        )
    return frozenset(
        target.id
        for target in _set_targets(ctx, scope)
        if isinstance(target, ast.Name)
    )


def _set_targets(ctx, body: ast.AST) -> Iterator[ast.expr]:
    """Every assignment target in ``body`` whose value builds a set."""
    for node in ast.walk(body):
        if isinstance(node, ast.Assign) and _set_expression(ctx, node.value):
            yield from node.targets


def _is_self_attr(node: ast.expr) -> bool:
    return (
        isinstance(node, ast.Attribute)
        and isinstance(node.value, ast.Name)
        and node.value.id == "self"
    )


class UnorderedIterationRule(Rule):
    """REP003: no iteration whose order the language does not define.

    Flags a loop or comprehension over a set built in place, over a local
    or ``self`` attribute bound to one (see :func:`set_bindings`), or over
    set algebra (``a | b``) on either; and a bare ``dict.popitem()``.
    """

    code = "REP003"
    name = "unordered-iteration"
    summary = (
        "iteration over a set/frozenset, or over a local or self attribute "
        "bound to one (or bare dict.popitem), has no defined order; sort, "
        "or keep an ordered container"
    )

    def _is_unordered(self, ctx, node: ast.expr) -> Optional[str]:
        if isinstance(node, ast.Name) and node.id in ctx.set_locals:
            return f"'{node.id}', a local bound to a set"
        if _is_self_attr(node) and node.attr in ctx.set_attrs:
            return f"self.{node.attr}, an attribute bound to a set"
        if isinstance(node, ast.BinOp) and isinstance(node.op, _SET_OPS):
            inner = self._is_unordered(ctx, node.left) or self._is_unordered(
                ctx, node.right
            )
            return None if inner is None else f"set algebra over {inner}"
        return _set_expression(ctx, node)

    def check_iter(self, ctx, node: ast.AST, iter_node: ast.expr, add: AddFn) -> None:
        what = self._is_unordered(ctx, iter_node)
        if what is not None:
            add(
                self.code,
                iter_node,
                f"iterating over {what}: set order is arbitrary and can "
                "reshuffle message schedules between runs; wrap in sorted()",
            )

    def check_call(self, ctx, node: ast.Call, add: AddFn) -> None:
        if (
            isinstance(node.func, ast.Attribute)
            and node.func.attr == "popitem"
            and not node.args
            and not node.keywords
        ):
            add(
                self.code,
                node,
                "bare .popitem() pops an implementation-ordered item; pop an "
                "explicit key (OrderedDict.popitem(last=...) is fine)",
            )


class IdBasedIdentityRule(Rule):
    """REP004: never derive ordering or hashes from object identity.

    Every ``id()`` call is flagged.  ``hash()`` is legitimate inside
    ``__hash__``, so only its ordering uses are: ``key=hash`` (or a key
    lambda calling ``hash()``) on ``sorted``/``min``/``max``/``.sort``,
    a bare ``key=id``, and ``hash()`` results compared with ``<``/``>``.
    """

    code = "REP004"
    name = "id-based-identity"
    summary = (
        "id() values change between runs, and hash() of str/bytes changes "
        "with PYTHONHASHSEED; order/hash by a stable node or message "
        "identifier"
    )

    _ORDER_CALLS = frozenset({"sorted", "min", "max"})

    def check_call(self, ctx, node: ast.Call, add: AddFn) -> None:
        target = ctx.resolve_call(node)
        if target == "id":
            add(
                self.code,
                node,
                "id() is a memory address and differs between runs; use a "
                "stable identifier (node_id, event sequence number, ...)",
            )
            return
        if target not in self._ORDER_CALLS and not (
            isinstance(node.func, ast.Attribute) and node.func.attr == "sort"
        ):
            return
        for keyword in node.keywords:
            if keyword.arg == "key" and self._identity_key(keyword.value):
                add(
                    self.code,
                    node,
                    "ordering keyed on id()/hash() follows memory addresses "
                    "or the per-process hash seed; key on node_id, EventId "
                    "or a sequence number",
                )

    @staticmethod
    def _identity_key(key: ast.expr) -> bool:
        # `key=lambda n: id(n)` is already flagged at the id() call.
        if isinstance(key, ast.Name):
            return key.id in ("id", "hash")
        return isinstance(key, ast.Lambda) and any(
            _is_hash_call(sub) for sub in ast.walk(key.body)
        )

    def check_compare(self, ctx, node: ast.Compare, add: AddFn) -> None:
        if any(
            isinstance(op, (ast.Lt, ast.LtE, ast.Gt, ast.GtE)) for op in node.ops
        ) and any(_is_hash_call(o) for o in (node.left, *node.comparators)):
            add(
                self.code,
                node,
                "comparing hash() results orders by the per-process hash "
                "seed; compare stable protocol identifiers",
            )


def _is_hash_call(node: ast.AST) -> bool:
    return (
        isinstance(node, ast.Call)
        and isinstance(node.func, ast.Name)
        and node.func.id == "hash"
        and bool(node.args)
    )


#: Attribute patterns REP007 bans hot-path branches on: all of these are
#: fixed once construction finishes, so a per-event ``if self._injector:``
#: can only re-create the overhead that setup-time method binding removed.
#: ``[tool.repro-lint.hot-path] guards`` overrides the list.
_DEFAULT_HOT_PATH_GUARDS = (
    "_injector",
    "_observer",
    "peers",
    "_loss_model",
    "_oob_loss_model",
    "_jitter_fn",
    "fault_hooks",
    "faults",
    "degradation",
)


class HotPathGuardRule(Rule):
    """REP007: hot-path methods must not branch on static configuration.

    The registry of hot-path methods lives in ``[tool.repro-lint.hot-path]``
    (``Class.method`` fnmatch patterns); without it the rule is inert.  A
    branch on a guard attribute inside a registered method means static
    configuration is being re-checked on every simulated message -- the
    decision belongs at construction time, as a bound method variant
    (see docs/PERFORMANCE.md).
    """

    code = "REP007"
    name = "hot-path-guard"
    summary = (
        "per-event branch on setup-time configuration inside a registered "
        "hot-path method; bind a fast/checked method variant at "
        "construction instead"
    )

    def check_function(self, ctx, node, add: AddFn) -> None:
        hot_path = getattr(ctx, "hot_path", None)
        if hot_path is None or not hot_path.methods:
            return
        qualname = ctx.method_qualname(node)
        if qualname is None or not any(
            fnmatch.fnmatch(qualname, pattern) for pattern in hot_path.methods
        ):
            return
        guards = hot_path.guards or _DEFAULT_HOT_PATH_GUARDS
        # Only conditional *tests* are inspected: a checked variant may read
        # a guard attribute unconditionally, and `assert peers is not None`
        # narrowing (erased under -O) stays legal.
        for stmt in ast.walk(node):
            if isinstance(stmt, (ast.If, ast.While, ast.IfExp)):
                for sub in ast.walk(stmt.test):
                    if (
                        isinstance(sub, ast.Attribute)
                        and isinstance(sub.value, ast.Name)
                        and sub.value.id == "self"
                        and any(fnmatch.fnmatch(sub.attr, g) for g in guards)
                    ):
                        add(
                            self.code,
                            sub,
                            f"hot-path method {qualname} branches on "
                            f"self.{sub.attr} per event; the attribute is "
                            "fixed at setup time -- bind a fast/checked "
                            "method variant at construction instead",
                        )


RULES: List[Rule] = [
    UnorderedIterationRule(),
    IdBasedIdentityRule(),
    HotPathGuardRule(),
]


def all_codes() -> List[str]:
    return [rule.code for rule in RULES]

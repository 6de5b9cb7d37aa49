"""Interprocedural effect inference over the project call graph.

Every analyzed function gets an *effect set* describing what it touches
beyond its arguments, propagated transitively through the call graph the
import/MRO machinery of :mod:`.model` can resolve:

========================  ==============================================
``rng-stream:<name>``     requests a named ``RandomStreams`` stream
                          (``?`` when the name is not a literal)
``wall-clock``            reads or waits on host time (``time.time`` &
                          friends, ``time.sleep``)
``host-io``               calls sync file/socket/subprocess I/O
========================  ==============================================

Resolvable call edges are ``self.method()`` (through the MRO),
``super().method()``, module-level functions, class constructors
(edge to ``__init__``), ``functools.partial`` targets, instance-bound
entry points (``self.send_gossip`` rebound in ``__init__`` to
``self._send_gossip``), and ``@property`` reads.  Effects of nested
``def``/``lambda`` bodies are attributed to the enclosing function — a
callback's effects belong to whoever builds it.

Propagation is a plain fixpoint union over the resolved call edges.

The same pass records where classes are constructed (and whether inside a
loop), which seeds the per-node/per-event class set REP203 reasons
about.  The effects feed REP204 (stream requests) and REP002's call
chains (``wall-clock``, ``host-io``).
"""

from __future__ import annotations

import ast
from typing import (
    Callable, Dict, Iterable, List, Optional, Sequence, Set, Tuple, Union,
)

from .model import (
    ClassInfo,
    FunctionInfo,
    ModuleInfo,
    Project,
    dotted_parts,
)

__all__ = [
    "WALL_CLOCK",
    "WALL_CLOCK_CALLS",
    "HOST_IO",
    "STREAM_PREFIX",
    "Construction",
    "StreamRequest",
    "FunctionEffects",
    "EffectMap",
    "infer_effects",
    "resolve_call_target",
    "stream_name",
]

WALL_CLOCK = "wall-clock"
HOST_IO = "host-io"
#: parameterized effect: ``rng-stream:<name>@<requesting module>``.
STREAM_PREFIX = "rng-stream:"

_STREAM_METHODS = frozenset({"stream", "substreams", "compact_stream"})
#: Wall-clock reads, by canonical call name.  Any of these leaking into
#: simulation logic makes a run depend on the host machine instead of the
#: master seed.  ``time.sleep`` is no read, but it waits on the same clock:
#: it gives its caller the ``wall-clock`` effect too.
WALL_CLOCK_CALLS = frozenset(
    {
        "time.time", "time.time_ns",
        "time.monotonic", "time.monotonic_ns",
        "time.perf_counter", "time.perf_counter_ns",
        "time.process_time", "time.process_time_ns",
        "datetime.datetime.now", "datetime.datetime.utcnow",
        "datetime.datetime.today", "datetime.date.today",
    }
)
#: Host I/O: synchronous file/socket/process access and console input.
#: Resolved against the canonical dotted call name (``open`` is the bare
#: builtin).  What these return is not fixed by the master seed, so
#: confined-layer code reaching one is REP002's call-chain part.
_HOST_IO_CALLS = frozenset(
    {
        "open", "input",
        "socket.socket", "socket.create_connection", "socket.socketpair",
        "subprocess.run", "subprocess.call", "subprocess.check_call",
        "subprocess.check_output", "subprocess.Popen",
        "os.system", "os.popen", "os.wait", "os.waitpid",
        "urllib.request.urlopen", "http.client.HTTPConnection",
        "requests.get", "requests.post", "requests.request",
    }
)


def stream_name(effect: str) -> Tuple[str, str]:
    """``rng-stream:<name>@<module>`` → ``(name, module)``."""
    body = effect[len(STREAM_PREFIX):]
    name, _, origin = body.partition("@")
    return name, origin


class Construction:
    """One resolved ``Cls(...)`` call site."""

    __slots__ = ("cls", "node", "in_loop", "function")

    def __init__(
        self,
        cls: ClassInfo,
        node: ast.Call,
        in_loop: bool,
        function: FunctionInfo,
    ) -> None:
        self.cls = cls
        self.node = node
        self.in_loop = in_loop
        self.function = function


class StreamRequest:
    """One ``<streams>.stream(...)`` / ``substreams(...)`` call site.

    ``name`` is the literal stream name, a ``prefix*`` pattern when the
    name is an f-string with a literal head, or ``None`` when fully
    dynamic.  ``consumer`` is the module whose code the stream is handed
    to: the innermost enclosing resolved call's defining module, falling
    back to the requesting module itself.
    """

    __slots__ = ("name", "node", "function", "consumer")

    def __init__(
        self,
        name: Optional[str],
        node: ast.Call,
        function: FunctionInfo,
        consumer: str,
    ) -> None:
        self.name = name
        self.node = node
        self.function = function
        self.consumer = consumer


class FunctionEffects:
    """Direct facts + fixpoint-propagated effect set for one function."""

    __slots__ = ("function", "direct", "effects", "sites", "callees",
                 "constructions", "stream_requests", "via")

    def __init__(self, function: FunctionInfo) -> None:
        self.function = function
        self.direct: Set[str] = set()
        #: direct ∪ propagated (after the fixpoint).
        self.effects: Set[str] = set()
        #: effect -> first AST node exhibiting it *directly*.
        self.sites: Dict[str, ast.AST] = {}
        #: resolved ``(callee qualname, call site inside a loop?)`` pairs.
        self.callees: List[Tuple[str, bool]] = []
        self.constructions: List[Construction] = []
        self.stream_requests: List[StreamRequest] = []
        #: effect -> callee qualname it was first inherited from.
        self.via: Dict[str, str] = {}


class EffectMap:
    """The inferred effects of every function in the project."""

    def __init__(self, project: Project) -> None:
        self.project = project
        #: one record per ``def`` in the project, in model order.
        self.records: List[FunctionEffects] = []
        #: qualname → the record of the ``def`` the name resolves to (the
        #: last one), for call-graph edges.
        self.functions: Dict[str, FunctionEffects] = {}

    def by_qualname(self) -> List[FunctionEffects]:
        """Every record, sorted by qualname (source order among
        redefinitions): the deterministic order rules report in."""
        return sorted(self.records, key=lambda record: record.function.qualname)

    def all_constructions(self) -> Iterable[Construction]:
        for record in self.records:
            yield from record.constructions


# ----------------------------------------------------------------------
# Direct-effect extraction
# ----------------------------------------------------------------------


def module_class_registries(
    module: ModuleInfo, project: Project
) -> Dict[str, List[ClassInfo]]:
    """Module-level dict literals whose values are project classes.

    ``ALGORITHMS = {NoRecovery.name: NoRecovery, ...}`` is a *class
    registry*: calling a subscript of it (``ALGORITHMS[name](...)``)
    constructs one of the registered classes.  The extractor turns such
    calls into construction records for every registered class, so the
    per-node closure sees through registry-based factories.
    """
    registries: Dict[str, List[ClassInfo]] = {}
    for stmt in module.tree.body:
        if not isinstance(stmt, ast.Assign):
            continue
        if not isinstance(stmt.value, ast.Dict):
            continue
        classes: List[ClassInfo] = []
        for value in stmt.value.values:
            parts = dotted_parts(value)
            if parts is None:
                continue
            resolved = project.resolve_name(module, parts)
            if isinstance(resolved, ClassInfo):
                classes.append(resolved)
        if not classes:
            continue
        for target in stmt.targets:
            if isinstance(target, ast.Name):
                registries[target.id] = classes
    return registries


def _local_names(func: ast.AST) -> Set[str]:
    """Names a function body binds locally (its arguments included)."""
    local: Set[str] = set()
    declared_global: Set[str] = set()
    args = getattr(func, "args", None)
    if args is not None:
        for arg in (
            *args.posonlyargs, *args.args, *args.kwonlyargs,
            *([args.vararg] if args.vararg else []),
            *([args.kwarg] if args.kwarg else []),
        ):
            local.add(arg.arg)
    for node in ast.walk(func):
        if isinstance(node, ast.Global):
            declared_global.update(node.names)
        elif isinstance(node, ast.Name) and isinstance(
            node.ctx, (ast.Store, ast.Del)
        ):
            local.add(node.id)
    return local - declared_global


def _receiver_parts(call_func: ast.expr) -> Optional[List[str]]:
    if not isinstance(call_func, ast.Attribute):
        return None
    return dotted_parts(call_func.value)


def _is_streamsish(parts: Optional[Sequence[str]]) -> bool:
    if not parts:
        return False
    return any("stream" in part or part in ("rngs", "_rngs") for part in parts)


def _literal_stream_name(arg: ast.expr) -> Optional[str]:
    """Literal / prefix-literal stream name, ``None`` when dynamic."""
    if isinstance(arg, ast.Constant) and isinstance(arg.value, str):
        return arg.value
    if isinstance(arg, ast.JoinedStr):
        prefix = ""
        for value in arg.values:
            if isinstance(value, ast.Constant) and isinstance(value.value, str):
                prefix += value.value
            else:
                break
        return f"{prefix}*" if prefix else None
    return None


def resolve_call_target(
    project: Project,
    module: ModuleInfo,
    cls: Optional[ClassInfo],
    node: ast.Call,
) -> Union[ClassInfo, FunctionInfo, None]:
    """Resolve one call site to the project symbol it invokes.

    Handles ``self.method()`` (through the MRO), ``super().method()``,
    dotted module-level names, constructors, and ``functools.partial(
    target, ...)`` (resolved to ``target`` — a callback's effects belong
    to whoever builds it).
    """
    func = node.func
    parts = dotted_parts(func)
    if parts is not None:
        canonical = module.resolve_parts(parts)
        if canonical == "functools.partial" and node.args:
            target = node.args[0]
            if (
                isinstance(target, ast.Attribute)
                and isinstance(target.value, ast.Name)
                and target.value.id == "self"
                and cls is not None
            ):
                return cls.mro_method(target.attr)
            target_parts = dotted_parts(target)
            if target_parts is not None:
                return project.resolve_name(module, target_parts)
            return None
    # self.method() through the MRO.
    if (
        isinstance(func, ast.Attribute)
        and isinstance(func.value, ast.Name)
        and func.value.id == "self"
        and cls is not None
    ):
        return cls.mro_method(func.attr)
    # super().method()
    if (
        isinstance(func, ast.Attribute)
        and isinstance(func.value, ast.Call)
        and isinstance(func.value.func, ast.Name)
        and func.value.func.id == "super"
        and cls is not None
    ):
        for base in cls.bases:
            method = base.mro_method(func.attr)
            if method is not None:
                return method
        return None
    if parts is None:
        return None
    return project.resolve_name(module, parts)


def _is_property(method: FunctionInfo) -> bool:
    """Decorated as a ``@property`` / ``@cached_property`` getter?"""
    for decorator in getattr(method.node, "decorator_list", []):
        parts = dotted_parts(decorator)
        if parts and parts[-1] in ("property", "cached_property"):
            return True
    return False


def _instance_bindings(
    cls: ClassInfo,
    cache: Dict[str, Dict[str, List[FunctionInfo]]],
) -> Dict[str, List[FunctionInfo]]:
    """``attr -> methods`` for instance attributes rebound to the class's
    own methods (``self.receive = self._receive_event`` at setup time).
    Scans the whole MRO once per class and memoizes in ``cache``."""
    hit = cache.get(cls.qualname)
    if hit is not None:
        return hit
    bindings: Dict[str, List[FunctionInfo]] = {}
    for ancestor in reversed(cls.mro()):
        for method in ancestor.defs:
            for node in ast.walk(method.node):
                if not isinstance(node, ast.Assign):
                    continue
                value = node.value
                if not (
                    isinstance(value, ast.Attribute)
                    and isinstance(value.value, ast.Name)
                    and value.value.id == "self"
                ):
                    continue
                target_method = cls.mro_method(value.attr)
                if target_method is None:
                    continue
                for target in node.targets:
                    if (
                        isinstance(target, ast.Attribute)
                        and isinstance(target.value, ast.Name)
                        and target.value.id == "self"
                        and target.attr != value.attr
                    ):
                        candidates = bindings.setdefault(target.attr, [])
                        if target_method not in candidates:
                            candidates.append(target_method)
    cache[cls.qualname] = bindings
    return bindings


class _Extractor:
    """Direct effects, call edges, constructions of one function body."""

    def __init__(
        self,
        project: Project,
        record: FunctionEffects,
        registries: Dict[str, List[ClassInfo]],
        bound_cache: Optional[Dict[str, Dict[str, List[FunctionInfo]]]] = None,
    ) -> None:
        self.project = project
        self.record = record
        self.function = record.function
        self.module = record.function.module
        self.cls = record.function.cls
        self.registries = registries
        #: class qualname -> attr -> methods rebound onto the instance
        #: (``self.send_gossip = self._send_gossip`` in ``__init__``).
        self.bound_cache = bound_cache if bound_cache is not None else {}
        self.locals = _local_names(record.function.node)
        #: local names bound to a registry subscript (``cls = REG[name]``).
        self.registry_locals: Dict[str, List[ClassInfo]] = {}
        for node in ast.walk(record.function.node):
            if not isinstance(node, ast.Assign):
                continue
            classes = self._registry_subscript(node.value)
            if classes is None:
                continue
            for target in node.targets:
                if isinstance(target, ast.Name):
                    self.registry_locals[target.id] = classes

    def _registry_subscript(
        self, expr: ast.expr
    ) -> Optional[List[ClassInfo]]:
        """``REG[key]`` / ``REG.get(key)`` for a known class registry."""
        if isinstance(expr, ast.Subscript):
            root = expr.value
        elif (
            isinstance(expr, ast.Call)
            and isinstance(expr.func, ast.Attribute)
            and expr.func.attr == "get"
        ):
            root = expr.func.value
        else:
            return None
        if isinstance(root, ast.Name) and root.id not in self.locals:
            return self.registries.get(root.id)
        return None

    # ------------------------------------------------------------------
    def run(self) -> None:
        self._walk(self.function.node, in_loop=False)
        self._assign_stream_consumers()

    def _walk(self, node: ast.AST, in_loop: bool) -> None:
        for child in ast.iter_child_nodes(node):
            child_in_loop = in_loop or isinstance(
                node,
                (
                    ast.For, ast.AsyncFor, ast.While, ast.comprehension,
                    ast.ListComp, ast.SetComp, ast.DictComp, ast.GeneratorExp,
                ),
            )
            self._visit(child, child_in_loop)
            self._walk(child, child_in_loop)

    def _visit(self, node: ast.AST, in_loop: bool) -> None:
        if isinstance(node, ast.Attribute):
            self._visit_attribute(node)
        elif isinstance(node, ast.Call):
            self._visit_call(node, in_loop)

    # ------------------------------------------------------------------
    def _add(self, effect: str, node: ast.AST) -> None:
        self.record.direct.add(effect)
        self.record.sites.setdefault(effect, node)

    def _visit_attribute(self, node: ast.Attribute) -> None:
        if not isinstance(node.ctx, ast.Load):
            return
        # A @property read runs the getter: reading ``self.elapsed`` on a
        # class whose ``elapsed`` getter touches the clock inherits the
        # getter's effects exactly like a call would.
        if (
            isinstance(node.value, ast.Name)
            and node.value.id == "self"
            and self.cls is not None
        ):
            method = self.cls.mro_method(node.attr)
            if method is not None and _is_property(method):
                self.record.callees.append((method.qualname, False))

    def _visit_call(self, node: ast.Call, in_loop: bool) -> None:
        func = node.func
        receiver = _receiver_parts(func)
        attr = func.attr if isinstance(func, ast.Attribute) else None

        if (
            attr in _STREAM_METHODS
            and _is_streamsish(receiver)
            and node.args
        ):
            name = _literal_stream_name(node.args[0])
            if name is not None and attr == "substreams":
                name = f"{name}[*"
            self.record.stream_requests.append(
                StreamRequest(name, node, self.function, self.module.name)
            )

        resolved = self._resolve_callee(node)
        if isinstance(resolved, FunctionInfo):
            self.record.callees.append((resolved.qualname, in_loop))
        elif isinstance(resolved, ClassInfo):
            self._construct(resolved, node, in_loop)
        else:
            bound = self._instance_bound_targets(node)
            if bound:
                for method in bound:
                    self.record.callees.append((method.qualname, in_loop))
                return
            registry_classes = None
            if isinstance(func, ast.Name):
                registry_classes = self.registry_locals.get(func.id)
            if registry_classes is None:
                registry_classes = self._registry_subscript(func)
            if registry_classes is not None:
                for cls in registry_classes:
                    self._construct(cls, node, in_loop)
            else:
                dotted = self.module.resolve_call(node)
                if dotted in WALL_CLOCK_CALLS or dotted == "time.sleep":
                    self._add(WALL_CLOCK, node)
                elif dotted in _HOST_IO_CALLS:
                    self._add(HOST_IO, node)

    def _construct(
        self, cls: ClassInfo, node: ast.Call, in_loop: bool
    ) -> None:
        self.record.constructions.append(
            Construction(cls, node, in_loop, self.function)
        )
        init = cls.mro_method("__init__")
        if init is not None:
            self.record.callees.append((init.qualname, in_loop))

    # ------------------------------------------------------------------
    def _instance_bound_targets(
        self, node: ast.Call
    ) -> Optional[List[FunctionInfo]]:
        """Methods a ``self.X(...)`` call can dispatch to when ``X`` is an
        instance attribute rebound to one of the class's own methods
        (``self.send_gossip = self._send_gossip`` in ``__init__`` — the
        setup-time method-binding idiom).  All candidate bindings are
        returned: a conditional rebind contributes every branch."""
        func = node.func
        if not (
            isinstance(func, ast.Attribute)
            and isinstance(func.value, ast.Name)
            and func.value.id == "self"
            and self.cls is not None
        ):
            return None
        return _instance_bindings(self.cls, self.bound_cache).get(func.attr)

    def _resolve_callee(self, node: ast.Call):
        return resolve_call_target(
            self.project, self.module, self.cls, node
        )

    def _assign_stream_consumers(self) -> None:
        """Innermost resolved call wrapping a stream request names its
        consumer module (``Dispatcher(..., streams.stream("cache[0]"))``
        hands the stream to ``repro.pubsub.dispatcher``)."""
        if not self.record.stream_requests:
            return
        by_node = {req.node: req for req in self.record.stream_requests}
        # ast.walk is breadth-first: outer calls precede inner ones, so a
        # later (deeper) match overwrites an earlier (outer) one.
        for node in ast.walk(self.function.node):
            if not isinstance(node, ast.Call):
                continue
            resolved = self._resolve_callee(node)
            if resolved is None:
                continue
            module_name = resolved.module.name
            for arg in (*node.args, *(kw.value for kw in node.keywords)):
                for sub in ast.walk(arg):
                    request = by_node.get(sub)
                    if request is not None:
                        request.consumer = module_name


# ----------------------------------------------------------------------
# Fixpoint propagation
# ----------------------------------------------------------------------


def infer_effects(project: Project) -> EffectMap:
    """Extract direct effects and run the call-graph fixpoint."""
    effect_map = EffectMap(project)
    bound_cache: Dict[str, Dict[str, List[FunctionInfo]]] = {}

    for module in project.modules.values():
        registries = module_class_registries(module, project)
        for function in module.all_defs():
            record = FunctionEffects(function)
            _Extractor(project, record, registries, bound_cache).run()
            for request in record.stream_requests:
                name = request.name if request.name is not None else "?"
                record.direct.add(f"{STREAM_PREFIX}{name}@{module.name}")
            record.effects = set(record.direct)
            effect_map.records.append(record)
            effect_map.functions[function.qualname] = record

    changed = True
    while changed:
        changed = False
        for record in effect_map.records:
            for callee, _in_loop in record.callees:
                callee_record = effect_map.functions.get(callee)
                if callee_record is None:
                    continue
                new = callee_record.effects - record.effects
                if new:
                    record.effects |= new
                    for effect in new:
                        record.via.setdefault(effect, callee)
                    changed = True
    return effect_map


# ----------------------------------------------------------------------
# Per-node / per-event classes
# ----------------------------------------------------------------------


def per_node_classes(
    project: Project,
    effect_map: EffectMap,
    in_scope: Optional[Callable[[str], bool]] = None,
    factory_scope: Optional[Callable[[str], bool]] = None,
) -> Dict[str, str]:
    """``class qualname -> why it is per-node`` (seeds + fixpoint).

    Seeds: constructed inside a loop or comprehension, or constructed by
    a module-level factory that is itself called inside a loop
    (``create_recovery`` per node).  Closure: constructed by a method a
    per-node class inherits or defines — ``Dispatcher.publish`` building
    an ``Event`` makes ``Event`` per-event, and
    ``RecoveryAlgorithm.__init__`` building the gossip ``PeriodicTimer``
    makes the timer per-node once any concrete algorithm is.

    ``in_scope`` limits where *seeds* may come from (by the constructing
    function's module name).  Loops in layer-mapped modules express
    per-node/per-event cardinality; loops in driver scripts and
    benchmarks sweep whole-simulation configurations, and must not make
    one-per-run engine objects look per-node.  ``factory_scope``
    additionally limits which *factories* may seed when called in a
    loop: a factory living in the driver layer (``run_scenario``)
    constructs whole simulations, so a sweep calling it repeatedly says
    nothing about per-node cardinality -- while the same loop over a
    protocol-layer factory (``create_recovery``) is exactly the
    one-object-per-node signal the heuristic wants.  The closure is not
    filtered: whatever a genuinely per-node class constructs is per-node
    wherever it lives.
    """
    if in_scope is None:
        in_scope = lambda module_name: True  # noqa: E731
    if factory_scope is None:
        factory_scope = in_scope
    called_in_loop: Set[str] = set()
    for record in effect_map.records:
        if not in_scope(record.function.module.name):
            continue
        for callee, in_loop in record.callees:
            if in_loop:
                called_in_loop.add(callee)

    reasons: Dict[str, str] = {}
    changed = True
    while changed:
        changed = False
        # Methods *inherited* by a per-node class run per-node too.
        context: Set[str] = set()
        for qualname in reasons:
            cls = project.classes.get(qualname)
            if cls is not None:
                context.update(a.qualname for a in cls.mro())
        for construction in effect_map.all_constructions():
            if construction.cls.qualname in reasons:
                continue
            function = construction.function
            seedable = in_scope(function.module.name)
            reason: Optional[str] = None
            if construction.in_loop and seedable:
                reason = f"constructed in a loop in {function.qualname}"
            elif (
                function.cls is None
                and function.qualname in called_in_loop
                and factory_scope(function.module.name)
            ):
                reason = (
                    f"constructed by {function.qualname}(), itself called "
                    "in a loop"
                )
            elif function.cls is not None and function.cls.qualname in context:
                reason = f"constructed by per-node {function.qualname}"
            if reason is not None:
                reasons[construction.cls.qualname] = reason
                changed = True
    return reasons

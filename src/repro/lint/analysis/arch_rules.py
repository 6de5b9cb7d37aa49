"""The architecture rules, REP200, REP203 and REP204, and REP002.

Where REP101 and REP104 police cross-module *protocol* contracts, these
rules police the declared architecture itself:

========  ==============================================================
REP002    wall-clock read anywhere; host clock or host I/O reachable
          from a confined layer through a call chain (reproducibility)
REP200    import from a higher layer (engine must not know the protocol)
REP203    per-node/per-event class without ``__slots__`` (memory lean)
REP204    RNG stream requested off the consuming subsystem's declared
          named streams, or with a dynamic name (reproducibility)
========  ==============================================================

All of them share one :class:`ArchContext` — the resolved layer map, the
interprocedural effect sets, and the per-node class closure — built once
per run.  The layer map comes from ``[tool.repro-lint.layers]``; with no
declared layers, REP200, REP203 and REP002's call-chain part are inert,
and REP204 and REP002 fall back to their config-independent checks
(dynamic stream names, direct clock reads).
"""

from __future__ import annotations

import ast
import fnmatch
from typing import Dict, List, Optional, Set, Tuple

from ..config import LintConfig
from .effects import (
    EffectMap,
    FunctionEffects,
    HOST_IO,
    STREAM_PREFIX,
    WALL_CLOCK,
    WALL_CLOCK_CALLS,
    StreamRequest,
    infer_effects,
    per_node_classes,
    stream_name,
)
from .layers import LayerMap, build_layer_map
from .model import ClassInfo, Project, dotted_parts
from .rules import AddFn, AnalysisRule

__all__ = ["ArchContext", "ArchRule", "ARCH_RULES"]

#: Base-class names (suffix match) whose subclasses need no ``__slots__``
#: audit: enum members are singletons, protocols/ABCs are never
#: instantiated, exceptions are cold-path.
_SLOTS_EXEMPT_BASES = (
    "Enum", "IntEnum", "StrEnum", "IntFlag", "Flag", "Protocol",
    "NamedTuple", "TypedDict", "ABC", "Exception", "Error", "Warning",
)


class ArchContext:
    """Everything the REP200-series shares: one build per analysis run."""

    def __init__(self, project: Project, config: LintConfig) -> None:
        self.project = project
        self.config = config
        self.layer_map: LayerMap = build_layer_map(config.layers, project)
        self.effects: EffectMap = infer_effects(project)
        # With a layer map declared, only loops in *mapped* modules seed
        # per-node cardinality: benchmark/driver sweeps construct whole
        # simulations in loops without making the engine "per-node".
        # Factories get one further restriction -- a top-layer factory
        # (run_scenario) builds whole simulations, so experiment sweeps
        # calling it in a loop must not seed either.
        in_scope = None
        factory_scope = None
        if config.layers.order:
            top = config.layers.order[-1]
            in_scope = (
                lambda module_name: config.layers.layer_of(module_name)
                is not None
            )
            factory_scope = lambda module_name: (
                config.layers.layer_of(module_name) is not None
                and config.layers.layer_of(module_name) != top
            )
        #: per-node/per-event class qualname -> reason.
        self.per_node: Dict[str, str] = per_node_classes(
            project, self.effects, in_scope, factory_scope
        )

    # ------------------------------------------------------------------
    def below_top(self, module_name: str) -> bool:
        """Mapped to a layer strictly below the top one?"""
        order = self.config.layers.order
        if not order:
            return False
        layer = self.layer_map.layer_of_module(module_name)
        return layer is not None and layer != order[-1]

    def declared_streams(self, module_name: str) -> Optional[Tuple[str, ...]]:
        """Allowed stream-name patterns for ``module_name`` (longest
        declared subsystem prefix wins); ``None`` when undeclared."""
        best: Optional[Tuple[str, ...]] = None
        best_len = -1
        for prefix, patterns in self.config.rng_streams:
            if module_name == prefix or module_name.startswith(prefix + "."):
                if len(prefix) > best_len:
                    best, best_len = patterns, len(prefix)
        return best


class ArchRule(AnalysisRule):
    """Base class for rules that consume the shared :class:`ArchContext`."""

    def run(self, project: Project, add: AddFn) -> None:  # pragma: no cover
        raise RuntimeError(
            f"{self.code} needs an ArchContext; use run_arch()"
        )

    def run_arch(self, ctx: ArchContext, add: AddFn) -> None:
        raise NotImplementedError


class LayerImportRule(ArchRule):
    """REP200: no layer imports a layer above it."""

    code = "REP200"
    name = "layer-import"
    summary = (
        "module imports a higher layer of the declared layer map; the "
        "engine/transport must stay ignorant of the protocol built on it"
    )

    def run_arch(self, ctx: ArchContext, add: AddFn) -> None:
        for edge in ctx.layer_map.violations():
            add(
                edge.source,
                edge.node,
                self.code,
                f"{edge.source.name} ({edge.source_layer} layer) imports "
                f"{edge.target} ({edge.target_layer} layer), which sits "
                "above it in the declared layer map; invert the dependency "
                "or move the shared piece down",
            )


class SlotsRule(ArchRule):
    """REP203: per-node/per-event classes carry ``__slots__`` and avoid
    string-keyed hot dicts."""

    code = "REP203"
    name = "per-node-slots"
    summary = (
        "class instantiated per-node/per-event lacks __slots__ (or "
        "inherits a __dict__ from a slotless base), or keeps a dict "
        "subscripted with string-literal hot keys; at 100k nodes the "
        "per-instance dict dominates memory and every string access "
        "re-hashes what an interned int would compare in one word"
    )

    #: dict methods whose first argument is the key.
    _DICT_KEY_METHODS = frozenset({"get", "setdefault", "pop"})

    def run_arch(self, ctx: ArchContext, add: AddFn) -> None:
        reported: Set[str] = set()
        for qualname in sorted(ctx.per_node):
            cls = ctx.project.classes.get(qualname)
            if cls is None or not ctx.below_top(cls.module.name):
                continue
            if ctx.config.slots.is_exempt(cls.qualname, cls.name):
                continue
            self._check_str_keyed_dicts(ctx, cls, add)
            if self._exempt_ancestry(ctx, cls):
                continue
            offender = self._slotless_ancestor(cls)
            if offender is None or offender.qualname in reported:
                continue
            reported.add(offender.qualname)
            where = (
                ""
                if offender is cls
                else f" (via slotless base {offender.name})"
            )
            add(
                offender.module,
                offender.node,
                self.code,
                f"{offender.name} is instantiated per-node/per-event "
                f"({ctx.per_node[qualname]}) but has no __slots__{where}; "
                "add __slots__ (or dataclass(slots=True)), or exempt it "
                "under [tool.repro-lint.slots]",
            )

    # -- string-keyed hot dicts ----------------------------------------
    def _check_str_keyed_dicts(
        self, ctx: ArchContext, cls: ClassInfo, add: AddFn
    ) -> None:
        """Flag dict attributes of a per-node class whose methods access
        them with string-literal (or f-string) keys.

        A per-node ``self.stats["gossip"]`` hashes and compares a string
        on every hot-path touch and keeps one str-keyed dict per node;
        the compact-state substrate interns such key spaces to dense
        integers once (``PatternSpace.intern_content``) so per-node state
        can live in flat arrays.  Only *literal* string keys are flagged
        — a dict keyed by a variable may already hold interned ints.
        """
        dict_attrs = self._dict_attrs(cls)
        if not dict_attrs:
            return
        for attr, site in sorted(
            self._str_keyed_sites(cls, dict_attrs).items()
        ):
            add(
                cls.module,
                site,
                self.code,
                f"per-node class {cls.name} accesses dict '{attr}' with "
                "string-literal hot keys "
                f"({ctx.per_node[cls.qualname]}); intern the key space to "
                "integers (the PatternSpace.intern_content idiom) so "
                "per-node state can use flat int-keyed columns, or exempt "
                "the class under [tool.repro-lint.slots]",
            )

    @staticmethod
    def _dict_attrs(cls: ClassInfo) -> Set[str]:
        """Instance attributes assigned a dict (literal, comprehension,
        ``dict()``/``defaultdict()``/``Counter()``) in any method."""
        attrs: Set[str] = set()
        for method in cls.methods.values():
            for node in ast.walk(method.node):
                if not isinstance(node, ast.Assign):
                    continue
                value = node.value
                is_dict = isinstance(value, (ast.Dict, ast.DictComp))
                if isinstance(value, ast.Call):
                    parts = dotted_parts(value.func)
                    is_dict = bool(parts) and parts[-1] in (
                        "dict", "defaultdict", "OrderedDict", "Counter"
                    )
                if not is_dict:
                    continue
                for target in node.targets:
                    if (
                        isinstance(target, ast.Attribute)
                        and isinstance(target.value, ast.Name)
                        and target.value.id == "self"
                    ):
                        attrs.add(target.attr)
        return attrs

    def _str_keyed_sites(
        self, cls: ClassInfo, dict_attrs: Set[str]
    ) -> Dict[str, ast.AST]:
        """attr name -> first site where it is keyed by a string literal."""
        sites: Dict[str, ast.AST] = {}
        for method in cls.methods.values():
            for node in ast.walk(method.node):
                attr: Optional[str] = None
                key: Optional[ast.expr] = None
                if isinstance(node, ast.Subscript):
                    attr = self._self_attr(node.value)
                    key = node.slice
                elif (
                    isinstance(node, ast.Call)
                    and isinstance(node.func, ast.Attribute)
                    and node.func.attr in self._DICT_KEY_METHODS
                    and node.args
                ):
                    attr = self._self_attr(node.func.value)
                    key = node.args[0]
                if (
                    attr in dict_attrs
                    and attr not in sites
                    and key is not None
                    and self._is_str_key(key)
                ):
                    sites[attr] = node
        return sites

    @staticmethod
    def _self_attr(expr: ast.expr) -> Optional[str]:
        if (
            isinstance(expr, ast.Attribute)
            and isinstance(expr.value, ast.Name)
            and expr.value.id == "self"
        ):
            return expr.attr
        return None

    @staticmethod
    def _is_str_key(expr: ast.expr) -> bool:
        if isinstance(expr, ast.Constant):
            return isinstance(expr.value, str)
        return isinstance(expr, ast.JoinedStr)

    @staticmethod
    def _exempt_ancestry(ctx: ArchContext, cls: ClassInfo) -> bool:
        """Enums/protocols/exceptions, and classes with unresolved external
        bases we cannot audit, are skipped."""
        for name in cls.ancestry_names():
            short = name.split(".")[-1]
            if short.endswith(_SLOTS_EXEMPT_BASES):
                return True
            if (
                name not in ctx.project.classes
                and name != cls.qualname
                and "." in name
            ):
                # unresolved non-local base: slots status unknowable
                if ctx.project.lookup(name) is None:
                    return True
        return False

    def _slotless_ancestor(self, cls: ClassInfo) -> Optional[ClassInfo]:
        for ancestor in cls.mro():
            if not self._is_slotted(ancestor):
                return ancestor
        return None

    @staticmethod
    def _is_slotted(cls: ClassInfo) -> bool:
        for stmt in cls.node.body:
            if isinstance(stmt, ast.Assign):
                targets = stmt.targets
            elif isinstance(stmt, ast.AnnAssign):
                targets = [stmt.target]
            else:
                continue
            for target in targets:
                if isinstance(target, ast.Name) and target.id == "__slots__":
                    return True
        for decorator in cls.node.decorator_list:
            if isinstance(decorator, ast.Call):
                parts = dotted_parts(decorator.func)
                if parts and parts[-1] == "dataclass":
                    for kw in decorator.keywords:
                        if (
                            kw.arg == "slots"
                            and isinstance(kw.value, ast.Constant)
                            and kw.value.value is True
                        ):
                            return True
        return False


class RngStreamRule(ArchRule):
    """REP204: stream requests stay on the consumer's declared streams."""

    code = "REP204"
    name = "rng-stream-discipline"
    summary = (
        "RandomStreams stream requested with a dynamic name, or off the "
        "consuming subsystem's declared stream names; named streams are "
        "the reproducibility contract between subsystems"
    )

    def run_arch(self, ctx: ArchContext, add: AddFn) -> None:
        for qualname in sorted(ctx.effects.functions):
            record = ctx.effects.functions[qualname]
            for request in record.stream_requests:
                self._check_request(ctx, record, request, add)
            self._check_inherited(ctx, record, add)

    def _check_request(
        self,
        ctx: ArchContext,
        record: FunctionEffects,
        request: StreamRequest,
        add: AddFn,
    ) -> None:
        module = record.function.module
        if request.name is None:
            add(
                module,
                request.node,
                self.code,
                f"{record.function.qualname} requests a RandomStreams "
                "stream with a dynamic name; stream names are the "
                "reproducibility contract — use a literal (f-strings with "
                "a literal prefix are fine)",
            )
            return
        patterns = ctx.declared_streams(request.consumer)
        if patterns is None:
            return
        if not any(fnmatch.fnmatch(request.name, p) for p in patterns):
            add(
                module,
                request.node,
                self.code,
                f"stream '{request.name}' is handed to {request.consumer}, "
                f"whose declared streams are {', '.join(patterns)}; draw "
                "from the consuming subsystem's own named stream "
                "(see [tool.repro-lint.rng-streams])",
            )

    def _check_inherited(
        self, ctx: ArchContext, record: FunctionEffects, add: AddFn
    ) -> None:
        """A declared subsystem inheriting a foreign stream through an
        *undeclared* helper is laundering; flag the caller."""
        module = record.function.module
        patterns = ctx.declared_streams(module.name)
        if patterns is None:
            return
        for effect in sorted(record.effects - record.direct):
            if not effect.startswith(STREAM_PREFIX):
                continue
            name, origin = stream_name(effect)
            if name == "?" or ctx.declared_streams(origin) is not None:
                continue  # dynamic/declared origins are flagged at the site
            if not any(fnmatch.fnmatch(name, p) for p in patterns):
                add(
                    module,
                    record.function.node,
                    self.code,
                    f"{record.function.qualname} draws from stream "
                    f"'{name}' via {record.via.get(effect, origin)}(); its "
                    f"subsystem declares {', '.join(patterns)} — keep "
                    "draws on the subsystem's own streams",
                )


class WallClockRule(ArchRule):
    """REP002: no wall-clock reads, and no host input reachable from
    confined-layer code.

    Every direct read (``time.time()``, ``datetime.now()``, ...) is flagged
    at its call, in any module and at any nesting, module level included.
    A per-path or inline exemption -- harness timing, campaign journaling
    -- stops at the site, not at the caller, so a function in a
    ``confined`` layer is also flagged when it inherits a ``wall-clock``
    or ``host-io`` effect from a callee, and at a direct ``host-io`` call
    (file, socket, subprocess).  That second part is inert without
    ``confined`` layers.
    """

    code = "REP002"
    name = "wall-clock"
    summary = (
        "wall-clock read, or host clock/host I/O reachable from "
        "confined-layer code through a call chain; simulation time must "
        "come from Simulator.now so runs replay bit-identically"
    )

    def run_arch(self, ctx: ArchContext, add: AddFn) -> None:
        for module in ctx.project.modules.values():
            for node in ast.walk(module.tree):
                if not isinstance(node, ast.Call):
                    continue
                target = module.resolve_call(node)
                if target in WALL_CLOCK_CALLS:
                    add(
                        module,
                        node,
                        self.code,
                        f"{target}() reads the wall clock; use Simulator.now "
                        "(or suppress if this only times the run for "
                        "reporting)",
                    )
        self._check_confined(ctx, add)

    def _check_confined(self, ctx: ArchContext, add: AddFn) -> None:
        for qualname in sorted(ctx.effects.functions):
            record = ctx.effects.functions[qualname]
            function = record.function
            if not ctx.layer_map.is_confined(function.module.name):
                continue
            layer = ctx.layer_map.layer_of_module(function.module.name)
            if HOST_IO in record.direct:
                site = record.sites.get(HOST_IO, function.node)
                how = "calls host I/O directly"
            else:
                inherited = sorted(
                    (record.effects - record.direct) & {WALL_CLOCK, HOST_IO}
                )
                if not inherited:
                    continue
                site = function.node
                how = (
                    f"reaches {', '.join(inherited)} via "
                    f"{record.via.get(inherited[0], 'a callee')}()"
                )
            add(
                function.module,
                site,
                self.code,
                f"{qualname} ({layer} layer) {how}; the host clock and "
                "host I/O are inputs the master seed does not fix, so the "
                "run stops replaying -- use Simulator.now and keep I/O in "
                "the scenarios layer",
            )


ARCH_RULES: List[ArchRule] = [
    WallClockRule(),
    LayerImportRule(),
    SlotsRule(),
    RngStreamRule(),
]

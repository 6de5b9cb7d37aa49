"""Configuration: the ``[tool.repro-lint]`` block of ``pyproject.toml``.

Recognised keys::

    [tool.repro-lint]
    exclude = ["tests/lint/fixtures"]      # glob patterns or dir prefixes
    select  = ["REP002", "REP003"]         # only these rules (default: all)
    ignore  = ["REP004"]                   # drop these rules everywhere

    [[tool.repro-lint.per-path]]           # ordered, later entries win
    path = "benchmarks/*"                  # fnmatch pattern vs. posix rel path
    disable = ["REP002"]
    # enable = [...] re-enables codes a broader entry (or `ignore`) removed

    [tool.repro-lint.hot-path]             # REP007 registry
    methods = ["Link.transmit"]            # Class.method fnmatch patterns
    # guards = ["_injector", ...]          # banned per-event config branches
    #                                      # (defaults to the built-in list)

    [tool.repro-lint.layers]               # REP200 layer map
    order = ["sim", "network", "protocol", "scenarios"]   # bottom -> top
    confined = ["protocol"]                # no host clock/I/O (REP002)

    [tool.repro-lint.layers.members]       # layer -> module-name prefixes
    sim = ["repro.sim"]
    protocol = ["repro.pubsub", "repro.recovery"]

    [tool.repro-lint.slots]                # REP203 allowlist
    exempt = ["repro.pubsub.pattern.PatternSpace"]

    [tool.repro-lint.rng-streams]          # REP204: subsystem -> name patterns
    "repro.recovery" = ["gossip[*"]

    [tool.repro-lint.durable]              # REP306 durable-module registry
    modules = [                            # files whose on-disk artifacts
        "src/repro/campaign/*",            # must survive a crash mid-write;
        "repro.campaign.*",                # path or dotted-name fnmatch
    ]

Every rule code in ``select``, ``ignore`` and a per-path ``disable``/
``enable`` must name a shipped rule; :func:`load_config` raises
:class:`ConfigError` otherwise, so a typo or a retired code cannot
silently switch rules off.

Paths in patterns are matched against the file's path relative to the
directory containing ``pyproject.toml`` (the *config root*), in POSIX form.
A file *outside* the config root has no such relative form and is matched
by its absolute POSIX path instead — root-relative patterns like
``tests/lint/fixtures`` will not apply to it (basename-style globs such as
``*_pb2.py`` still do, since ``*`` matches across ``/``).
"""

from __future__ import annotations

import fnmatch

try:
    import tomllib
except ModuleNotFoundError:  # Python < 3.11
    try:
        import tomli as tomllib  # type: ignore[no-redef]
    except ModuleNotFoundError:
        tomllib = None  # type: ignore[assignment]

from dataclasses import dataclass, field
from pathlib import Path
from typing import Iterable, Optional, Sequence, Set, Tuple

__all__ = [
    "LintConfig",
    "PerPath",
    "HotPathConfig",
    "LayersConfig",
    "SlotsConfig",
    "DurableConfig",
    "ConfigError",
    "load_config",
    "find_pyproject",
]


@dataclass(frozen=True)
class PerPath:
    """One per-path override: disable/enable rule codes under a pattern."""

    pattern: str
    disable: Tuple[str, ...] = ()
    enable: Tuple[str, ...] = ()


@dataclass(frozen=True)
class HotPathConfig:
    """``[tool.repro-lint.hot-path]``: the REP007 registry.

    ``methods`` holds ``Class.method`` fnmatch patterns naming the per-event
    hot-path methods; REP007 is inert when the list is empty.  ``guards``
    optionally overrides the built-in list of setup-time-constant attribute
    patterns that such methods must not branch on.
    """

    methods: Tuple[str, ...] = ()
    guards: Tuple[str, ...] = ()


@dataclass(frozen=True)
class LayersConfig:
    """``[tool.repro-lint.layers]``: the declared architecture (REP200).

    ``order`` lists layer names bottom (engine) to top (scenarios);
    ``members`` maps each layer to the module-name prefixes it owns.
    ``confined`` names the layers whose code may not reach the host
    clock or host I/O through any call chain (REP002).  An empty
    ``order`` leaves REP200 inert.
    """

    order: Tuple[str, ...] = ()
    members: Tuple[Tuple[str, Tuple[str, ...]], ...] = ()
    confined: Tuple[str, ...] = ()

    def layer_of(self, module_name: str) -> Optional[str]:
        """The layer owning ``module_name`` (longest prefix wins)."""
        best: Optional[str] = None
        best_len = -1
        for layer, prefixes in self.members:
            for prefix in prefixes:
                if module_name == prefix or module_name.startswith(prefix + "."):
                    if len(prefix) > best_len:
                        best, best_len = layer, len(prefix)
        return best

    def index_of(self, layer: str) -> int:
        return self.order.index(layer)


@dataclass(frozen=True)
class SlotsConfig:
    """``[tool.repro-lint.slots]``: REP203's ``__slots__`` allowlist.

    ``exempt`` holds fnmatch patterns over the dotted class qualname
    (``repro.pubsub.cache.EventCache``) and the bare class name.
    """

    exempt: Tuple[str, ...] = ()

    def is_exempt(self, *names: str) -> bool:
        return any(
            fnmatch.fnmatch(name, pattern)
            for name in names
            for pattern in self.exempt
        )


@dataclass(frozen=True)
class DurableConfig:
    """``[tool.repro-lint.durable]``: the REP306 durable-module registry.

    ``modules`` holds fnmatch patterns naming the modules whose on-disk
    artifacts must survive a crash mid-write (journals, manifests,
    checkpoints).  Patterns match both the file's root-relative POSIX
    path (``src/repro/campaign/*``) and its dotted module name
    (``repro.campaign.*``).  An empty list leaves REP306 inert.
    """

    modules: Tuple[str, ...] = ()

    def is_durable(self, *names: str) -> bool:
        return any(
            fnmatch.fnmatch(name, pattern)
            for name in names
            for pattern in self.modules
        )


@dataclass(frozen=True)
class LintConfig:
    """Resolved linter configuration."""

    root: Path = field(default_factory=Path.cwd)
    exclude: Tuple[str, ...] = ()
    select: Tuple[str, ...] = ()
    ignore: Tuple[str, ...] = ()
    per_path: Tuple[PerPath, ...] = ()
    #: REP007 registry; empty ``methods`` leaves the rule inert.
    hot_path: HotPathConfig = field(default_factory=HotPathConfig)
    #: declared layer map; empty ``order`` leaves REP200 inert.
    layers: LayersConfig = field(default_factory=LayersConfig)
    #: REP203 allowlist.
    slots: SlotsConfig = field(default_factory=SlotsConfig)
    #: REP204 discipline: subsystem module prefix -> allowed stream-name
    #: fnmatch patterns.  Empty means "any literal name" (only dynamic
    #: names are flagged).
    rng_streams: Tuple[Tuple[str, Tuple[str, ...]], ...] = ()
    #: REP306 registry; empty ``modules`` leaves the rule inert.
    durable: DurableConfig = field(default_factory=DurableConfig)

    def rel_path(self, path: Path) -> str:
        """``path`` relative to the config root, in POSIX form.

        Files outside the root fall back to their absolute POSIX path, so
        root-relative ``exclude``/``per-path`` patterns never match them;
        only basename-style globs (``*_pb2.py``) do.
        """
        resolved = path.resolve()
        try:
            return resolved.relative_to(self.root.resolve()).as_posix()
        except ValueError:
            return resolved.as_posix()

    def is_excluded(self, rel: str) -> bool:
        for pattern in self.exclude:
            clean = pattern.rstrip("/")
            if (
                fnmatch.fnmatch(rel, clean)
                or fnmatch.fnmatch(rel, clean + "/*")
                or rel.startswith(clean + "/")
            ):
                return True
        return False

    def enabled_codes(self, rel: str, all_codes: Iterable[str]) -> Set[str]:
        """The rule codes in force for the file at ``rel``."""
        codes = set(self.select) if self.select else set(all_codes)
        codes -= set(self.ignore)
        for entry in self.per_path:
            if fnmatch.fnmatch(rel, entry.pattern):
                codes -= set(entry.disable)
                codes |= set(entry.enable)
        return codes


class ConfigError(RuntimeError):
    """An invalid ``[tool.repro-lint]`` block; the CLI exits 2 on it."""


def _check_codes(
    pyproject: Path, lists: Iterable[Tuple[str, Sequence[str]]]
) -> None:
    """Reject rule codes no shipped rule answers to."""
    # Deferred: the rule registry imports this module.
    from .analysis import all_codes

    known = set(all_codes())
    unknown = [
        f"{code} (in {where})"
        for where, codes in lists
        for code in codes
        if code not in known
    ]
    if unknown:
        raise ConfigError(
            f"{pyproject}: unknown rule code(s) in [tool.repro-lint]: "
            f"{', '.join(unknown)}"
        )


def find_pyproject(start: Path) -> Optional[Path]:
    """Walk up from ``start`` looking for a ``pyproject.toml``."""
    current = start.resolve()
    if current.is_file():
        current = current.parent
    for candidate in (current, *current.parents):
        pyproject = candidate / "pyproject.toml"
        if pyproject.is_file():
            return pyproject
    return None


def load_config(pyproject: Path) -> LintConfig:
    """Parse ``[tool.repro-lint]`` out of ``pyproject`` (missing block ok)."""
    if tomllib is None:
        raise RuntimeError(
            f"cannot read {pyproject}: tomllib needs Python 3.11+ "
            "(or the tomli backport on 3.10); install tomli or run "
            "with --isolated"
        )
    with open(pyproject, "rb") as handle:
        data = tomllib.load(handle)
    table = data.get("tool", {}).get("repro-lint", {})
    per_path = tuple(
        PerPath(
            pattern=str(entry["path"]),
            disable=tuple(entry.get("disable", ())),
            enable=tuple(entry.get("enable", ())),
        )
        for entry in table.get("per-path", ())
    )
    select = tuple(table.get("select", ()))
    ignore = tuple(table.get("ignore", ()))
    _check_codes(
        pyproject,
        [("select", select), ("ignore", ignore)]
        + [
            (f"per-path {entry.pattern!r} {key}", getattr(entry, key))
            for entry in per_path
            for key in ("disable", "enable")
        ],
    )
    hot = table.get("hot-path", {})
    hot_path = HotPathConfig(
        methods=tuple(str(m) for m in hot.get("methods", ())),
        guards=tuple(str(g) for g in hot.get("guards", ())),
    )
    layers_table = table.get("layers", {})
    layers = LayersConfig(
        order=tuple(str(l) for l in layers_table.get("order", ())),
        members=tuple(
            (str(layer), tuple(str(p) for p in prefixes))
            for layer, prefixes in layers_table.get("members", {}).items()
        ),
        confined=tuple(str(l) for l in layers_table.get("confined", ())),
    )
    slots_table = table.get("slots", {})
    slots = SlotsConfig(
        exempt=tuple(str(p) for p in slots_table.get("exempt", ()))
    )
    rng_streams = tuple(
        (str(prefix), tuple(str(p) for p in patterns))
        for prefix, patterns in table.get("rng-streams", {}).items()
    )
    durable_table = table.get("durable", {})
    durable = DurableConfig(
        modules=tuple(str(p) for p in durable_table.get("modules", ()))
    )
    return LintConfig(
        root=pyproject.parent,
        exclude=tuple(table.get("exclude", ())),
        select=select,
        ignore=ignore,
        per_path=per_path,
        hot_path=hot_path,
        layers=layers,
        slots=slots,
        rng_streams=rng_streams,
        durable=durable,
    )


def config_for_paths(paths: Sequence[Path]) -> LintConfig:
    """Locate and load the config governing ``paths`` (first hit wins)."""
    for path in paths:
        pyproject = find_pyproject(path)
        if pyproject is not None:
            return load_config(pyproject)
    return LintConfig()

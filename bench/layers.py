"""Roll cProfile self time up to this repository's layers.

A layer is a top-level package of ``repro`` on the single-run path
(``LAYERS``).  A function's self time (``tottime``) belongs to the layer
whose package holds its source file.  Self time of anything else -- a
builtin such as ``heapq.heappush`` or a stdlib function such as
``random.Random.sample`` -- is charged to the layers of its callers, in
proportion to the self time each call edge accounts for, climbing through
foreign callers until a layer function is reached.  What has no layer
ancestor (the benchmark's own frames, the profiler itself) is
``UNATTRIBUTED``.

The input is the ``stats`` mapping of a ``cProfile.Profile`` after
``create_stats()``: ``{func: (cc, nc, tt, ct, callers)}`` with
``callers = {caller_func: (nc, cc, tt, ct)}`` and ``func`` a
``(filename, lineno, name)`` triple.
"""

from __future__ import annotations

from pathlib import Path
from typing import Dict, Optional, Tuple

__all__ = ["LAYERS", "UNATTRIBUTED", "layer_of_file", "rollup"]

LAYERS = (
    "sim",
    "network",
    "pubsub",
    "recovery",
    "topology",
    "workload",
    "metrics",
    "faults",
    "scenarios",
)
UNATTRIBUTED = "unattributed"

Func = Tuple[str, int, str]
Shares = Dict[str, float]


def layer_of_file(filename: str, package_dir: Path) -> Optional[str]:
    """The layer of a source file under ``package_dir`` (the ``repro``
    package directory), or ``None`` for any other file or a builtin."""
    try:
        parts = Path(filename).relative_to(package_dir).parts
    except ValueError:
        return None
    if len(parts) > 1 and parts[0] in LAYERS:
        return parts[0]
    return None


def rollup(stats: dict, package_dir: Path) -> Tuple[Dict[str, float], Dict[str, int]]:
    """Return ``(self_seconds, calls)`` per layer for one profile.

    ``self_seconds`` has every layer in ``LAYERS`` plus ``UNATTRIBUTED``
    and sums to the profile's total self time; ``calls`` counts the calls
    into each layer's own functions (builtins are not counted).
    """
    file_layer: Dict[str, Optional[str]] = {}

    def own_layer(func: Func) -> Optional[str]:
        filename = func[0]
        if filename not in file_layer:
            file_layer[filename] = layer_of_file(filename, package_dir)
        return file_layer[filename]

    shares_memo: Dict[Func, Shares] = {}
    in_progress = set()

    def shares(func: Func) -> Shares:
        """How ``func``'s self time splits over layers."""
        layer = own_layer(func)
        if layer is not None:
            return {layer: 1.0}
        if func in shares_memo:
            return shares_memo[func]
        if func in in_progress:  # recursion among foreign functions
            return {UNATTRIBUTED: 1.0}
        in_progress.add(func)
        callers = stats[func][4] if func in stats else {}
        # Weight each call edge by the self time it accounts for; an edge
        # set with no measurable time falls back to call counts.
        weights = {caller: edge[2] for caller, edge in callers.items()}
        if sum(weights.values()) <= 0.0:
            weights = {caller: edge[0] for caller, edge in callers.items()}
        total = sum(weights.values())
        result: Shares = {}
        if total <= 0:
            result[UNATTRIBUTED] = 1.0
        else:
            for caller, weight in weights.items():
                for name, share in shares(caller).items():
                    result[name] = result.get(name, 0.0) + share * weight / total
        in_progress.discard(func)
        shares_memo[func] = result
        return result

    self_seconds = {name: 0.0 for name in LAYERS + (UNATTRIBUTED,)}
    calls = {name: 0 for name in LAYERS}
    for func, (_cc, nc, tt, _ct, _callers) in stats.items():
        layer = own_layer(func)
        if layer is not None:
            calls[layer] += nc
        for name, share in shares(func).items():
            self_seconds[name] += tt * share
    return self_seconds, calls

"""Parameter-sweep helpers used by the figure benchmarks.

A sweep runs the same base configuration with one (or more) field varied,
optionally crossed with a set of recovery algorithms -- exactly the
structure of the paper's Figures 4, 5, 6, 8, 9, and 10.

Every cell of a sweep is independent, so every helper accepts ``jobs``:
``jobs=1`` (default) runs serially in process, ``jobs=N`` fans the cells
over N worker processes via :mod:`repro.parallel`, with bit-identical
results in the same order (only ``wall_clock_seconds`` differs).
:func:`run_grid` is the one grid driver: ``sweep_algorithms`` and every
``fig*`` experiment in :mod:`repro.scenarios.experiments` go through it.
"""

from __future__ import annotations

from typing import (
    Any, Callable, Dict, Iterable, List, Mapping, Optional, Sequence, Tuple,
)

from repro.parallel import map_scenarios
from repro.parallel.executor import JobsSpec
from repro.scenarios.config import SimulationConfig
from repro.scenarios.results import RunResult

__all__ = ["run_grid", "sweep", "sweep_algorithms", "SweepPoint"]


class SweepPoint:
    """One (x, algorithm) cell of a sweep with its result."""

    __slots__ = ("x", "algorithm", "result")

    def __init__(self, x: Any, algorithm: str, result: RunResult) -> None:
        self.x = x
        self.algorithm = algorithm
        self.result = result

    def __repr__(self) -> str:  # pragma: no cover - debug aid
        return (
            f"<SweepPoint x={self.x} algo={self.algorithm} "
            f"delivery={self.result.delivery_rate:.3f}>"
        )


def _sweep_configs(
    base: SimulationConfig,
    field: str,
    values: Sequence[Any],
    derive: Optional[Callable[[SimulationConfig, Any], SimulationConfig]],
) -> List[SimulationConfig]:
    """The per-value configs of one sweep, in value order."""
    configs = []
    for value in values:
        config = base.replace(**{field: value})
        if derive is not None:
            config = derive(config, value)
        configs.append(config)
    return configs


def run_grid(
    rows: Mapping[str, Sequence[SimulationConfig]],
    jobs: JobsSpec = None,
    campaign_dir: Optional[str] = None,
) -> Dict[str, List[RunResult]]:
    """Run a grid of scenarios: ``{row name: configs in column order}``.

    The whole grid is one :func:`~repro.parallel.map_scenarios` call over
    the cells flattened row by row, so ``jobs`` workers stay busy even
    when each row is short and ``campaign_dir`` journals every cell.
    Results come back as ``{row name: [RunResult per column]}`` in the
    same row and column order.
    """
    rows = {name: list(row) for name, row in rows.items()}
    flat = [config for row in rows.values() for config in row]
    results = iter(map_scenarios(flat, jobs=jobs, campaign_dir=campaign_dir))
    return {name: [next(results) for _ in row] for name, row in rows.items()}


def sweep(
    base: SimulationConfig,
    field: str,
    values: Sequence[Any],
    derive: Optional[Callable[[SimulationConfig, Any], SimulationConfig]] = None,
    jobs: JobsSpec = None,
    campaign_dir: Optional[str] = None,
) -> List[SweepPoint]:
    """Run ``base`` once per value of ``field``.

    ``derive`` may adjust the config further per point (e.g. Fig 6 scales
    β together with N); it receives the config *after* the swept field is
    applied and returns the final config.  ``jobs`` selects the executor
    (see :mod:`repro.parallel`); ``campaign_dir`` makes the sweep
    journaled and resumable (see :mod:`repro.campaign`).
    """
    configs = _sweep_configs(base, field, values, derive)
    results = map_scenarios(configs, jobs=jobs, campaign_dir=campaign_dir)
    return [
        SweepPoint(value, config.algorithm, result)
        for value, config, result in zip(values, configs, results)
    ]


def sweep_algorithms(
    base: SimulationConfig,
    algorithms: Sequence[str],
    field: Optional[str] = None,
    values: Sequence[Any] = (),
    derive: Optional[Callable[[SimulationConfig, Any], SimulationConfig]] = None,
    jobs: JobsSpec = None,
    campaign_dir: Optional[str] = None,
) -> Dict[str, List[SweepPoint]]:
    """Cross a sweep with a set of algorithms: ``{algorithm: [points]}``.

    With no ``field`` each algorithm runs once at the base configuration
    (``x`` is then ``None``).  The *whole* cross product is fanned over
    ``jobs`` workers at once, so four algorithms saturate four cores even
    when each sweeps only a few values.  ``campaign_dir`` makes the grid
    journaled and resumable (see :mod:`repro.campaign`).
    """
    rows = {
        algorithm: (
            [base.replace(algorithm=algorithm)]
            if field is None
            else _sweep_configs(
                base.replace(algorithm=algorithm), field, values, derive
            )
        )
        for algorithm in algorithms
    }
    xs = [None] if field is None else list(values)
    grid = run_grid(rows, jobs=jobs, campaign_dir=campaign_dir)
    return {
        algorithm: [
            SweepPoint(x, config.algorithm, result)
            for x, config, result in zip(xs, rows[algorithm], grid[algorithm])
        ]
        for algorithm in algorithms
    }


def series_of(
    points: Iterable[SweepPoint],
    metric: Callable[[RunResult], float],
) -> List[Tuple[Any, float]]:
    """Extract ``(x, metric)`` pairs from sweep points."""
    return [(point.x, metric(point.result)) for point in points]

"""Parallel experiment execution.

The scenario layer fans independent (config, seed) cells -- sweep points,
algorithm crosses, replication seeds -- over a pluggable executor.  Two
backends ship:

* :class:`SerialExecutor` -- the default; runs cells in order, in process.
* :class:`repro.campaign.executor.ProcessExecutor` -- the one process
  pool, which :func:`get_executor` builds for ``jobs=N``.  It lives in
  :mod:`repro.campaign` because its optional per-cell deadlines read the
  wall clock, which this package never does.

Both preserve submission order and, because every simulation is a pure
function of its :class:`~repro.scenarios.config.SimulationConfig` (no
global state, no wall-clock reads, no hash-randomized iteration on the
result path), both produce **bit-identical** results: ``jobs=4`` and
``jobs=1`` differ only in ``RunResult.wall_clock_seconds``.  The tests in
``tests/parallel/`` assert exactly that.

Failed cells surface as structured :class:`CellFailure` records inside a
:class:`CellFailureError` that carries the ordered partial results --
one bad cell no longer destroys its completed siblings.  For long
campaigns, :mod:`repro.campaign` builds journaled, resumable execution
on top of this layer (``map_scenarios`` routes there when given
``campaign_dir=``).
"""

from repro.parallel.executor import (
    CellFailure,
    CellFailureError,
    ExecutorReport,
    ExperimentExecutor,
    SerialExecutor,
    get_executor,
    map_scenarios,
    resolve_jobs,
)

__all__ = [
    "CellFailure",
    "CellFailureError",
    "ExecutorReport",
    "ExperimentExecutor",
    "SerialExecutor",
    "get_executor",
    "map_scenarios",
    "resolve_jobs",
]

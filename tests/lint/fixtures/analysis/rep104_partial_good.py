"""REP104 fixture (clean): partials of module-level functions pickle fine.

``functools.partial`` serializes by *reference* to the wrapped callable
plus its frozen arguments, so partial-of-module-level-function is the
sanctioned way to ship per-run parameters to worker processes -- flagging
it would be a false positive.
"""

import functools
from functools import partial

from repro.campaign.executor import ProcessExecutor


def run_one(scenario, scale=1):
    return scenario


def run_all(scenarios):
    executor = ProcessExecutor(2)
    return executor.map(partial(run_one, scale=2), scenarios)


def run_all_qualified(scenarios):
    executor = ProcessExecutor(2)
    return executor.map(functools.partial(run_one, scale=3), scenarios)


def run_all_nested_partial(scenarios):
    executor = ProcessExecutor(2)
    # Even a partial of a partial bottoms out at a module-level function.
    return executor.map(partial(partial(run_one, scale=4)), scenarios)

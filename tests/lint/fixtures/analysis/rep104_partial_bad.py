"""REP104 regression fixture: ``functools.partial`` must be transparent.

The rule once ignored every ``Call`` submission, so a partial wrapping an
unpicklable callable sailed through.  Each submission here wraps exactly
the kind of callable REP104 exists to reject.
"""

import functools
from functools import partial

from repro.campaign.executor import ProcessExecutor


def run_lambda(scenarios):
    executor = ProcessExecutor(2)
    # BAD: the wrapped lambda is just as unpicklable as a bare one.
    return executor.map(partial(lambda scenario: scenario, 1), scenarios)


def run_nested(scenarios):
    def run_one(scenario, scale):
        return scenario

    executor = ProcessExecutor(2)
    # BAD: partial of a nested function -- workers cannot import it.
    return executor.map(functools.partial(run_one, scale=2), scenarios)


class Driver:
    def run_bound(self, scenarios):
        executor = ProcessExecutor(2)
        # BAD: partial of a bound method drags ``self`` into the pickle.
        return executor.map(partial(self.step, 1), scenarios)

    def step(self, scale, scenario):
        return scenario

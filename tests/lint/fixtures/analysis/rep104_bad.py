"""REP104 fixture: unpicklable callables submitted to an executor."""

from repro.campaign.executor import ProcessExecutor


def run_all(scenarios):
    executor = ProcessExecutor(2)
    # BAD: a lambda cannot be pickled into the worker processes.
    return executor.map(lambda scenario: scenario, scenarios)


def run_nested(scenarios):
    def run_one(scenario):
        return scenario

    executor = ProcessExecutor(2)
    # BAD: nested function — the workers cannot import it by name.
    return executor.map(run_one, scenarios)

"""REP104 fixture (clean): a module-level callable is picklable."""

from repro.campaign.executor import ProcessExecutor


def run_one(scenario):
    return scenario


def run_all(scenarios):
    executor = ProcessExecutor(2)
    return executor.map(run_one, scenarios)

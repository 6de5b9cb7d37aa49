"""REP104 fixture: ``map_report`` pickles its submissions like ``map``."""

from repro.campaign.executor import ProcessExecutor


def run_all(scenarios):
    executor = ProcessExecutor(2)
    # BAD: the pool ships this lambda to worker processes.
    return executor.map_report(lambda scenario: scenario, scenarios)

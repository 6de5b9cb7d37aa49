"""run_campaign: resume determinism, chaos equivalence, quarantine report.

The acceptance bar for the campaign runtime: however a sweep is
interrupted or sabotaged -- scripted worker kills, hangs past the
deadline, transient raises, or plain partial execution -- the merged
``RunResult.signature()``s must come out byte-identical to one
uninterrupted in-process serial run, with every cell accounted for.
"""

from __future__ import annotations

import pytest

from repro.campaign.chaos import ChaosEvent, ChaosExecutor
from repro.campaign.journal import CampaignJournal
from repro.campaign.runtime import run_campaign
from repro.parallel.executor import (
    CellFailureError,
    ExperimentExecutor,
    SerialExecutor,
)
from repro.parallel import map_scenarios

from tests.campaign.conftest import tiny_grid


def signatures(results):
    return [result.signature() for result in results]


class CountingSerial(SerialExecutor):
    """A caller's executor that claims two jobs and counts its ``map`` calls."""

    jobs = 2

    def __init__(self):
        self.calls = 0

    def map(self, fn, items):
        self.calls += 1
        return super().map(fn, items)


class MapOnly(ExperimentExecutor):
    """An executor with only ``map``: one config always raises."""

    def __init__(self, poisoned):
        self.poisoned = poisoned

    def map(self, fn, items):
        if self.poisoned in items:
            raise RuntimeError("poisoned cell")
        return [fn(item) for item in items]


class TestSerialResume:
    def test_partial_run_then_resume_is_bit_identical(
        self, tmp_path, reference_results
    ):
        configs = tiny_grid()
        first = run_campaign(configs[:2], tmp_path)
        assert first.report.executed == 2 and first.report.skipped == 0

        # Resume over the full grid: the two journaled cells are served
        # from disk, the other two run fresh.
        second = run_campaign(configs, tmp_path)
        assert second.report.skipped == 2
        assert second.report.executed == 2
        assert second.report.failures == []
        assert signatures(second.results) == signatures(reference_results)

        # A third run is a pure journal replay.
        third = run_campaign(configs, tmp_path)
        assert third.report.skipped == 4 and third.report.executed == 0
        assert signatures(third.results) == signatures(reference_results)

    def test_completed_campaign_is_compacted(self, tmp_path):
        configs = tiny_grid(2)
        run_campaign(configs, tmp_path)
        journal = CampaignJournal(tmp_path)
        assert journal.journal_path.exists()
        assert list(journal.cells_dir.glob("*.ndjson")) == []
        assert len(journal.load()) == 2

    def test_duplicate_configs_share_one_cell(self, tmp_path):
        configs = tiny_grid(2)
        outcome = run_campaign(configs + [configs[0]], tmp_path)
        assert outcome.report.total == 3
        assert outcome.report.executed == 2  # unique cells only
        assert (
            outcome.results[0].signature() == outcome.results[2].signature()
        )


class TestChaosEquivalence:
    def test_jobs4_sweep_with_scripted_kill_matches_serial(
        self, tmp_path, reference_results
    ):
        # A worker SIGKILLs itself mid-cell: the broken pool charges every
        # in-flight cell (victim and bystanders are indistinguishable), the
        # pool is rebuilt, and the sweep still converges bit-identically.
        configs = tiny_grid()
        executor = ChaosExecutor(
            4,
            [ChaosEvent(0, "kill", attempt=1)],
            max_retries=3,
            backoff_base=0.0,
        )
        outcome = run_campaign(configs, tmp_path, jobs=executor)
        report = outcome.report
        assert report.failures == []
        assert report.worker_crashes >= 1
        assert report.pool_rebuilds >= 1
        assert report.retries >= 1
        assert signatures(outcome.results) == signatures(reference_results)

    def test_jobs4_sweep_with_hang_and_raise_matches_serial(
        self, tmp_path, reference_results
    ):
        # The two pool-preserving fault families together: a transient
        # raise (exception retry) and a hang past the per-cell deadline
        # (reaper kill + timeout retry).  Neither breaks the pool, so the
        # counters are exact.
        configs = tiny_grid()
        executor = ChaosExecutor(
            4,
            [
                ChaosEvent(1, "raise", attempt=1),
                ChaosEvent(2, "hang", attempt=1),
            ],
            cell_timeout=3.0,
            max_retries=3,
            backoff_base=0.0,
        )
        outcome = run_campaign(configs, tmp_path, jobs=executor)
        report = outcome.report
        assert report.failures == []
        assert report.worker_crashes == 0
        assert report.timeouts == 1
        assert report.retries == 2  # one raise retry + one timeout retry
        assert report.pool_rebuilds == 1  # the reaper's kill-and-rebuild
        assert signatures(outcome.results) == signatures(reference_results)

    def test_chaos_interrupted_campaign_resumes_clean(
        self, tmp_path, reference_results
    ):
        # Every attempt of cell 3 raises: it is quarantined, the other
        # cells land in the journal, and a plain serial resume finishes
        # the sweep bit-identically.
        configs = tiny_grid()
        events = [ChaosEvent(3, "raise", attempt=a) for a in (1, 2)]
        executor = ChaosExecutor(2, events, max_retries=1, backoff_base=0.0)
        broken = run_campaign(configs, tmp_path, jobs=executor)
        assert [f.index for f in broken.report.failures] == [3]
        assert broken.results[3] is None
        with pytest.raises(CellFailureError):
            broken.raise_on_failures()
        journal = CampaignJournal(tmp_path)
        assert len(journal.failures()) == 1

        resumed = run_campaign(configs, tmp_path)
        assert resumed.report.skipped == 3
        assert resumed.report.executed == 1
        assert resumed.report.failures == []
        assert signatures(resumed.results) == signatures(reference_results)
        # Success on resume supersedes the quarantine record.
        assert journal.failures() == {}


class TestQuarantineReporting:
    def test_always_failing_cell_is_reported_never_dropped(self, tmp_path):
        configs = tiny_grid(3)
        events = [ChaosEvent(1, "raise", attempt=a) for a in (1, 2, 3)]
        executor = ChaosExecutor(2, events, max_retries=2, backoff_base=0.0)
        outcome = run_campaign(configs, tmp_path, jobs=executor)
        report = outcome.report
        assert report.total == 3
        assert [f.index for f in report.failures] == [1]
        assert report.failures[0].attempts == 3
        assert report.failures[0].kind == "exception"
        assert outcome.results[1] is None
        assert outcome.results[0] is not None and outcome.results[2] is not None
        assert "quarantined" in report.describe()
        # Quarantine is durable: visible to campaign status via failed/.
        record = list(CampaignJournal(tmp_path).failures().values())[0]
        assert record["kind"] == "exception"
        assert record["attempts"] == 3


class TestMapOnlyExecutor:
    def test_map_only_executor_journals_and_quarantines(
        self, tmp_path, reference_results
    ):
        configs = tiny_grid()
        outcome = run_campaign(configs, tmp_path, jobs=MapOnly(configs[1]))
        report = outcome.report
        assert report.executed == 4
        assert [f.index for f in report.failures] == [1]
        assert report.failures[0].kind == "exception"
        assert report.failures[0].attempts == 1
        assert "poisoned cell" in report.failures[0].error
        assert outcome.results[1] is None
        kept = [0, 2, 3]
        assert signatures(outcome.results[i] for i in kept) == signatures(
            reference_results[i] for i in kept
        )
        journal = CampaignJournal(tmp_path)
        assert len(journal.load()) == 3
        assert len(journal.failures()) == 1


class TestMapScenariosRouting:
    def test_campaign_dir_makes_map_scenarios_resumable(
        self, tmp_path, reference_results
    ):
        configs = tiny_grid(2)
        first = map_scenarios(configs, jobs=1, campaign_dir=tmp_path)
        second = map_scenarios(configs, jobs=1, campaign_dir=tmp_path)
        assert signatures(first) == signatures(reference_results[:2])
        assert signatures(second) == signatures(first)
        # Second call was served from the journal: still exactly 2 cells.
        assert len(CampaignJournal(tmp_path).load()) == 2

    def test_campaign_dir_keeps_the_callers_executor(self, tmp_path):
        configs = tiny_grid(2)
        plain = CountingSerial()
        map_scenarios(configs, jobs=plain)
        assert plain.calls == 1
        journaled = CountingSerial()
        results = map_scenarios(configs, jobs=journaled, campaign_dir=tmp_path)
        assert journaled.calls == len(configs)  # one map call per cell
        assert signatures(results) == signatures(map_scenarios(configs))

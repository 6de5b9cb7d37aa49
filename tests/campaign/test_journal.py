"""CampaignJournal unit behaviour: atomicity, dedup, compaction, quarantine.

Everything here runs against one shared tiny ``RunResult`` -- the journal
never looks inside a result beyond serializing it, so one cell exercises
every code path.
"""

from __future__ import annotations

import json

from repro.campaign.journal import (
    SCHEMA_VERSION,
    CampaignJournal,
    atomic_write_text,
)
from repro.campaign.runtime import run_campaign
from repro.scenarios.serialize import config_digest, result_to_dict

from tests.campaign.conftest import tiny_config


class TestAtomicWrite:
    def test_writes_content_and_leaves_no_temp(self, tmp_path):
        target = tmp_path / "record.json"
        atomic_write_text(target, "first\n")
        atomic_write_text(target, "second\n")
        assert target.read_text() == "second\n"
        assert [p.name for p in tmp_path.iterdir()] == ["record.json"]


class TestRecordAndLoad:
    def test_round_trip_preserves_signature(self, tmp_path, tiny_result):
        journal = CampaignJournal(tmp_path)
        digest = journal.record(tiny_result)
        assert digest == config_digest(tiny_result.config)
        entries = journal.load()
        assert set(entries) == {digest}
        assert entries[digest].result.signature() == tiny_result.signature()
        assert entries[digest].recorded_at > 0

    def test_extra_metadata_round_trips(self, tmp_path, tiny_result):
        journal = CampaignJournal(tmp_path)
        digest = journal.record(tiny_result, extra={"peak_rss_mb": 41.5})
        assert journal.load()[digest].extra == {"peak_rss_mb": 41.5}

    def test_rerecord_overwrites_single_record(self, tmp_path, tiny_result):
        journal = CampaignJournal(tmp_path)
        journal.record(tiny_result)
        digest = journal.record(tiny_result)
        assert len(list(journal.cells_dir.glob("*.ndjson"))) == 1
        assert set(journal.load()) == {digest}

    def test_crash_leftover_tmp_file_is_ignored(self, tmp_path, tiny_result):
        journal = CampaignJournal(tmp_path)
        digest = journal.record(tiny_result)
        # What a kill -9 mid-write leaves behind: a half-written temp.
        (journal.cells_dir / "deadbeef.ndjson.tmp-123").write_text('{"tru')
        entries = journal.load()
        assert set(entries) == {digest}

    def test_other_schema_records_are_skipped(self, tmp_path, tiny_result):
        journal = CampaignJournal(tmp_path)
        digest = journal.record(tiny_result)
        alien = {"schema": SCHEMA_VERSION + 1, "digest": "f" * 64, "result": {}}
        (journal.cells_dir / "alien.ndjson").write_text(json.dumps(alien) + "\n")
        assert set(journal.load()) == {digest}

    def test_schema_1_record_with_removed_fields_is_recomputed(
        self, tmp_path, tiny_result
    ):
        # A schema-1 journal stored the four config fields schema 2
        # dropped; decoding one would raise TypeError.  Even filed under
        # the current digest of its cell it is skipped, and a resume runs
        # the cell again instead of crashing.
        result = result_to_dict(tiny_result)
        result["config"].update(
            shards=1, loss_discipline="shared", cache_layout="auto",
            gossip_rng="auto",
        )
        digest = config_digest(tiny_result.config)
        journal = CampaignJournal(tmp_path)
        journal.ensure()
        legacy = {"schema": 1, "digest": digest, "result": result}
        (journal.cells_dir / f"{digest}.ndjson").write_text(
            json.dumps(legacy) + "\n"
        )
        assert journal.load() == {}
        outcome = run_campaign([tiny_config()], tmp_path)
        assert outcome.report.executed == 1 and outcome.report.skipped == 0
        assert outcome.results[0].signature() == tiny_result.signature()

    def test_empty_directory_loads_empty(self, tmp_path):
        assert CampaignJournal(tmp_path / "nowhere").load() == {}


class TestCompact:
    def test_folds_cells_into_journal_file(self, tmp_path, tiny_result):
        journal = CampaignJournal(tmp_path)
        digest = journal.record(tiny_result)
        before = journal.load()
        assert journal.compact() == 1
        assert journal.journal_path.exists()
        assert list(journal.cells_dir.glob("*.ndjson")) == []
        after = journal.load()
        assert set(after) == {digest}
        assert after[digest].result.signature() == before[digest].result.signature()

    def test_compact_is_idempotent_and_dedups(self, tmp_path, tiny_result):
        journal = CampaignJournal(tmp_path)
        journal.record(tiny_result)
        journal.compact()
        # A crash between merge-write and cell-file unlink leaves the same
        # record in both places; the next compact/load must dedup it.
        journal.record(tiny_result)
        assert journal.compact() == 1
        assert journal.compact() == 1
        assert len(journal.load()) == 1


class TestQuarantine:
    def test_record_failure_and_listing(self, tmp_path):
        journal = CampaignJournal(tmp_path)
        config = tiny_config(seed=9)
        digest = journal.record_failure(config, "timeout", "cell exceeded 5s", 3)
        failures = journal.failures()
        assert set(failures) == {digest}
        assert failures[digest]["kind"] == "timeout"
        assert failures[digest]["attempts"] == 3
        assert failures[digest]["config"]["seed"] == 9

    def test_success_clears_quarantine(self, tmp_path, tiny_result):
        journal = CampaignJournal(tmp_path)
        journal.record_failure(tiny_result.config, "exception", "boom", 3)
        journal.record(tiny_result)
        assert journal.failures() == {}


class TestManifest:
    def test_first_writer_wins(self, tmp_path):
        journal = CampaignJournal(tmp_path)
        assert journal.read_manifest() is None
        journal.write_manifest({"command": {"kind": "figure", "which": "7"}})
        journal.write_manifest({"command": {"kind": "figure", "which": "10"}})
        manifest = journal.read_manifest()
        assert manifest is not None
        assert manifest["command"]["which"] == "7"

"""CLI campaign surface: figure --campaign-dir, campaign status/resume."""

from __future__ import annotations

import pytest

from repro import cli
from repro.campaign.journal import CampaignJournal
from repro.scenarios.experiments import ExperimentResult
from repro.scenarios.runner import run_scenario

from tests.campaign.conftest import tiny_config

calls = []


@pytest.fixture(scope="module")
def tiny_result():
    return run_scenario(tiny_config())


def fake_figure(jobs, campaign_dir=None):
    calls.append({"jobs": jobs, "campaign_dir": campaign_dir})
    return ExperimentResult(
        "FigFake", "a fake figure", "x", [1, 2], curves={"line": [0.5, 0.6]}
    )


class TestCampaignCli:
    @pytest.fixture(autouse=True)
    def patch_figures(self, monkeypatch):
        monkeypatch.setitem(cli._FIGURES, "7", fake_figure)
        calls.clear()

    def test_figure_campaign_dir_writes_manifest(self, tmp_path, capsys):
        directory = tmp_path / "fig7"
        assert cli.main(["figure", "7", "--campaign-dir", str(directory)]) == 0
        assert calls == [{"jobs": 1, "campaign_dir": str(directory)}]
        manifest = CampaignJournal(directory).read_manifest()
        assert manifest is not None
        assert manifest["command"] == {"kind": "figure", "which": "7"}

    def test_figure_without_campaign_dir_does_not_journal(self, capsys):
        assert cli.main(["figure", "7"]) == 0
        assert calls == [{"jobs": 1, "campaign_dir": None}]

    def test_status_reports_progress_and_quarantine(
        self, tmp_path, capsys, tiny_result
    ):
        journal = CampaignJournal(tmp_path)
        journal.write_manifest({"command": {"kind": "figure", "which": "7"}})
        journal.record(tiny_result)
        journal.record_failure(
            tiny_result.config.replace(seed=99), "timeout", "exceeded 5.0s", 3
        )
        assert cli.main(["campaign", "status", str(tmp_path)]) == 0
        out = capsys.readouterr().out
        assert "journaled cells" in out
        assert "quarantined cells" in out
        assert "[timeout] exceeded 5.0s after 3 attempt(s)" in out

    def test_resume_redispatches_from_manifest(self, tmp_path, capsys):
        journal = CampaignJournal(tmp_path)
        journal.write_manifest({"command": {"kind": "figure", "which": "7"}})
        assert cli.main(["campaign", "resume", str(tmp_path), "--jobs", "3"]) == 0
        assert calls == [{"jobs": 3, "campaign_dir": str(tmp_path)}]
        assert "FigFake" in capsys.readouterr().out

    def test_resume_rejects_non_campaign_directory(self, tmp_path, capsys):
        assert cli.main(["campaign", "resume", str(tmp_path)]) == 1
        assert "no manifest" in capsys.readouterr().err

    def test_resume_rejects_unknown_manifest(self, tmp_path, capsys):
        CampaignJournal(tmp_path).write_manifest(
            {"command": {"kind": "mystery", "which": "??"}}
        )
        assert cli.main(["campaign", "resume", str(tmp_path)]) == 1
        assert "unsupported campaign manifest" in capsys.readouterr().err

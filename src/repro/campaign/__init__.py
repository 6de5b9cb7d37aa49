"""Crash-tolerant campaign runtime: journaled, resumable sweeps.

The paper's evaluation grid is thousands of independent simulation cells;
this package makes long fan-outs survive the harness's own failures the
way :mod:`repro.faults` + :mod:`repro.recovery` make the *simulated*
system survive its faults:

* :mod:`repro.campaign.journal` -- every completed cell persisted as one
  atomically written JSON record, keyed by config digest, so a killed
  campaign resumes instead of rerunning (and the merged result is
  bit-identical to an uninterrupted run).
* :mod:`repro.campaign.executor` -- :class:`ProcessExecutor`, the one
  process pool behind every ``jobs=N`` parameter: optional per-cell
  deadlines (hung-worker detection), bounded retries with exponential
  backoff, pool rebuild after worker crashes, and quarantine (never
  silent loss) of cells that exhaust their retries.
* :mod:`repro.campaign.runtime` -- :func:`run_campaign`, the journal x
  executor composition behind every ``campaign_dir=`` parameter in the
  scenario layer.
* :mod:`repro.campaign.chaos` -- a test-only executor that deterministically
  kills/hangs/raises in scripted cells to prove the recovery paths.
"""

from repro.campaign.executor import ProcessExecutor
from repro.campaign.journal import CampaignJournal, JournalEntry
from repro.campaign.runtime import CampaignReport, CampaignResult, run_campaign

__all__ = [
    "CampaignJournal",
    "JournalEntry",
    "ProcessExecutor",
    "CampaignReport",
    "CampaignResult",
    "run_campaign",
]

"""Durable cell journal: atomic, resumable persistence of sweep results.

Layout of a campaign directory::

    manifest.json        what this campaign runs (written once, atomically);
                         ``repro campaign resume`` re-dispatches from it
    journal.ndjson       compacted journal: one JSON record per line
    cells/<digest>.ndjson  one not-yet-compacted record per completed cell
    failed/<digest>.json   quarantine record of a cell that kept failing

Every write is *write-temp-then-``os.replace``*, so a ``kill -9`` at any
instant leaves either the old state or the new state -- never a torn
file.  A crash mid-write leaves at most one ``*.tmp-<pid>`` file, which
loading ignores and the next ``record()`` of that cell overwrites.

Records are keyed by :func:`~repro.scenarios.serialize.config_digest`
(content hash of the canonical config JSON): the same config always maps
to the same record no matter which process, host, or resume attempt ran
it, and duplicate configs inside one campaign share a single record.

``compact()`` folds the per-cell files into ``journal.ndjson`` (again
atomically: the merged file is fully written and renamed before the cell
files are unlinked -- a crash between the two steps only leaves duplicate
records, which loading deduplicates by digest).
"""

from __future__ import annotations

import json
import os
import time
from dataclasses import dataclass
from pathlib import Path
from typing import Any, Dict, Optional, Union

from repro.scenarios.config import SimulationConfig
from repro.scenarios.results import RunResult
from repro.scenarios.serialize import (
    config_digest,
    config_to_dict,
    result_from_dict,
    result_to_dict,
)

__all__ = ["CampaignJournal", "JournalEntry", "atomic_write_text"]

#: Bumped when the record layout changes incompatibly; loaders skip (and
#: report) records from other schemas instead of mis-parsing them.
#: Version 2 dropped four ``SimulationConfig`` fields, version 3 two
#: more (``subscriptions_exact``, ``push_skip_empty``) and version 4
#: seven that no experiment set (three model variants and four
#: single-valued knobs, now module constants): older configs no longer
#: decode, and every cell digest changed.
SCHEMA_VERSION = 4


def atomic_write_text(path: Path, text: str) -> None:
    """Write ``text`` to ``path`` atomically (temp file + ``os.replace``).

    The temp file lives in the same directory (``os.replace`` must not
    cross filesystems) and is fsynced before the rename, so after a crash
    the journal holds either the complete record or no record.
    """
    tmp = path.with_name(f"{path.name}.tmp-{os.getpid()}")
    with open(tmp, "w", encoding="utf-8") as handle:
        handle.write(text)
        handle.flush()
        os.fsync(handle.fileno())
    os.replace(tmp, path)


@dataclass
class JournalEntry:
    """One journaled cell, decoded."""

    digest: str
    result: RunResult
    #: Unix timestamp the record was written (reporting only).
    recorded_at: float = 0.0


class CampaignJournal:
    """Atomic per-cell persistence inside one campaign directory."""

    def __init__(self, directory: Union[str, "os.PathLike[str]"]) -> None:
        self.directory = Path(directory)
        self.cells_dir = self.directory / "cells"
        self.failed_dir = self.directory / "failed"
        self.journal_path = self.directory / "journal.ndjson"
        self.manifest_path = self.directory / "manifest.json"

    def ensure(self) -> None:
        self.cells_dir.mkdir(parents=True, exist_ok=True)
        self.failed_dir.mkdir(parents=True, exist_ok=True)

    # ------------------------------------------------------------- write
    def record(self, result: RunResult) -> str:
        """Persist one completed cell; returns its config digest.

        Clears any earlier quarantine record for the cell: success on a
        retry (or a later resume) supersedes the failure.
        """
        self.ensure()
        digest = config_digest(result.config)
        record: Dict[str, Any] = {
            "schema": SCHEMA_VERSION,
            "digest": digest,
            "algorithm": result.config.algorithm,
            "seed": result.config.seed,
            "wall_clock_seconds": result.wall_clock_seconds,
            # Wall-clock timestamp for reporting only; never compared.
            "recorded_at": time.time(),
            "result": result_to_dict(result),
        }
        line = json.dumps(record, sort_keys=True, separators=(",", ":"))
        atomic_write_text(self.cells_dir / f"{digest}.ndjson", line + "\n")
        failed = self.failed_dir / f"{digest}.json"
        if failed.exists():
            failed.unlink()
        return digest

    def record_failure(
        self, config: SimulationConfig, kind: str, error: str, attempts: int
    ) -> str:
        """Persist a quarantine record for a cell that exhausted retries."""
        self.ensure()
        digest = config_digest(config)
        record = {
            "schema": SCHEMA_VERSION,
            "digest": digest,
            "kind": kind,
            "error": error,
            "attempts": attempts,
            "recorded_at": time.time(),
            "config": config_to_dict(config),
        }
        atomic_write_text(
            self.failed_dir / f"{digest}.json",
            json.dumps(record, sort_keys=True, indent=2) + "\n",
        )
        return digest

    # -------------------------------------------------------------- read
    def load(self) -> Dict[str, JournalEntry]:
        """All journaled cells: compacted journal first, cell files on top.

        Both sources are deduplicated by digest (cell files win: they are
        at least as new as any compacted record of the same cell).
        Records from a different schema version are skipped.
        """
        entries: Dict[str, JournalEntry] = {}
        if self.journal_path.exists():
            with open(self.journal_path, "r", encoding="utf-8") as handle:
                for line in handle:
                    self._absorb_line(entries, line)
        if self.cells_dir.is_dir():
            for path in sorted(self.cells_dir.glob("*.ndjson")):
                self._absorb_line(entries, path.read_text(encoding="utf-8"))
        return entries

    @staticmethod
    def _absorb_line(entries: Dict[str, JournalEntry], line: str) -> None:
        line = line.strip()
        if not line:
            return
        record = json.loads(line)
        if record.get("schema") != SCHEMA_VERSION:
            return
        entries[record["digest"]] = JournalEntry(
            digest=record["digest"],
            result=result_from_dict(record["result"]),
            recorded_at=record.get("recorded_at", 0.0),
        )

    def failures(self) -> Dict[str, Dict[str, Any]]:
        """Current quarantine records, keyed by digest."""
        failures: Dict[str, Dict[str, Any]] = {}
        if self.failed_dir.is_dir():
            for path in sorted(self.failed_dir.glob("*.json")):
                record = json.loads(path.read_text(encoding="utf-8"))
                failures[record["digest"]] = record
        return failures

    # ----------------------------------------------------------- compact
    def compact(self) -> int:
        """Fold cell files into ``journal.ndjson``; returns the cell count.

        The merged journal is written atomically before any cell file is
        removed, so a crash between the steps duplicates records (deduped
        on load) rather than losing them.
        """
        entries: Dict[str, str] = {}
        if self.journal_path.exists():
            with open(self.journal_path, "r", encoding="utf-8") as handle:
                for line in handle:
                    line = line.strip()
                    if line:
                        entries[json.loads(line)["digest"]] = line
        cell_paths = (
            sorted(self.cells_dir.glob("*.ndjson")) if self.cells_dir.is_dir() else []
        )
        if not cell_paths:
            return len(entries)
        for path in cell_paths:
            line = path.read_text(encoding="utf-8").strip()
            if line:
                entries[json.loads(line)["digest"]] = line
        atomic_write_text(
            self.journal_path, "".join(line + "\n" for line in entries.values())
        )
        for path in cell_paths:
            path.unlink()
        return len(entries)

    # ---------------------------------------------------------- manifest
    def write_manifest(self, manifest: Dict[str, Any]) -> None:
        """Persist the campaign's description once (first writer wins)."""
        self.ensure()
        if self.manifest_path.exists():
            return
        atomic_write_text(
            self.manifest_path, json.dumps(manifest, sort_keys=True, indent=2) + "\n"
        )

    def read_manifest(self) -> Optional[Dict[str, Any]]:
        if not self.manifest_path.exists():
            return None
        return json.loads(self.manifest_path.read_text(encoding="utf-8"))

"""Crash-safe sweep journal: append-only JSONL of unit completions.

Every unit completion is **appended** to a JSONL file, flushed and
``fsync``-ed, the moment it happens.  Kill the process at any point —
power cut, OOM kill, ^C — and the journal holds every unit that
finished; rerunning the same sweep with the same ``--journal`` path
replays it and re-executes only the units that never completed.  With
``--no-cache`` it is the only store that keeps finished units; with a
cache it is a second copy of the units the run computed.

Format (one self-checksummed JSON object per line, written and read by
:mod:`repro.core.jsonl`)::

    {"journal": 3, "experiment_id": "fig3", "run": "...", "sha256": "..."}
    {"key": "uniform:1", "value": ..., "sha256": "..."}
    {"key": "uniform:2", "value": ..., "sha256": "..."}

The first line binds the journal to one run: its experiment and
``run``, a hash of the planned units and of
:func:`~repro.exec.cache.run_material` (machine, fault plan, seed,
code).  Replaying it into any other run — another experiment,
``--quick`` against a full sweep, another hypernode count — is refused
with an actionable error, and the file is left as it is.  Every line's
``sha256`` covers the whole object — key *and* value — so a torn,
corrupted or edited line is detected on replay and skipped; in
particular the final line, which a crash mid-append routinely
truncates, and which the next append starts after instead of
extending.  Skipped lines only cost a re-execution; they can never
smuggle a wrong value into results.

Schema history: v2 checksummed each whole line (v1 checksummed only
the value, so an edited key replayed as another unit); v3 binds the
header to the run (v2 bound only the experiment id).  Older journals
are refused with an actionable error rather than replayed.
"""

from __future__ import annotations

import json
import os
from typing import Dict

from ..core import jsonl
from ..core.canon import canonical

__all__ = ["SweepJournal", "JournalError", "JOURNAL_SCHEMA",
           "journal_header", "journal_record"]

JOURNAL_SCHEMA = 3


class JournalError(ValueError):
    """The journal file is unusable for this sweep; str() says why."""


def journal_header(experiment_id: str, run: str) -> Dict:
    """The journal's first line: binds the file to one run."""
    return {"journal": JOURNAL_SCHEMA, "experiment_id": experiment_id,
            "run": run}


def journal_record(key: str, value) -> Dict:
    """One unit-completion line: the unit key and its canonical value."""
    return {"key": key, "value": canonical(value)}


class SweepJournal:
    """Append-only record of unit completions for one run.

    Usage::

        journal = SweepJournal(path)
        done = journal.replay("fig3", run)   # {} on a fresh file
        journal.open("fig3", run)
        journal.record(unit.key, value)      # from the pool's on_complete
        ...
        journal.close()

    ``replay`` before ``open``: recording appends, so a journal
    survives its own resume and keeps growing across interruptions.
    """

    def __init__(self, path: str):
        self.path = path
        self.replayed = 0      #: completions recovered by replay()
        self.skipped = 0       #: torn/corrupt lines ignored by replay()
        self.recorded = 0      #: completions appended this run
        self._open = False

    # -- replay ---------------------------------------------------------

    def replay(self, experiment_id: str, run: str) -> Dict[str, object]:
        """Completions already journaled, as ``{key: value}``.

        Returns ``{}`` when the file does not exist yet or is empty.
        Raises :class:`JournalError` when the file belongs to a
        different experiment or run, uses another journal schema, or is
        not a journal at all.  Torn or checksum-failed lines (the normal
        crash residue) are counted in ``skipped`` and ignored; later
        duplicates of a key win (they are by construction identical
        values, re-journaled after a resume raced a crash).
        """
        try:
            fh = open(self.path, "r", encoding="utf-8", errors="replace")
        except FileNotFoundError:
            return {}
        with fh:
            header = fh.readline()
            if not header:
                return {}
            self._check_header(header, experiment_id, run)
            records, skipped = jsonl.parse(fh)
        done: Dict[str, object] = {}
        for rec in records:
            if "key" not in rec or "value" not in rec:
                skipped += 1
                continue
            done[rec["key"]] = rec["value"]
            self.replayed += 1
        self.skipped += skipped
        return done

    def _check_header(self, line: str, experiment_id: str, run: str
                      ) -> None:
        try:
            head = json.loads(line)
            schema, bound = head["journal"], head["experiment_id"]
        except (ValueError, KeyError, TypeError):
            head = schema = bound = None
        if schema is not None and schema != JOURNAL_SCHEMA:
            raise JournalError(
                f"{self.path} uses journal schema {schema!r}, this "
                f"build writes {JOURNAL_SCHEMA}; pass a fresh "
                "--journal path")
        if head is None or head.get("sha256") != jsonl.checksum(head):
            raise JournalError(
                f"{self.path} is not a sweep journal (bad header "
                "line); pass a fresh --journal path")
        if bound != experiment_id:
            raise JournalError(
                f"{self.path} belongs to experiment {bound!r}, not "
                f"{experiment_id!r}; pass a fresh --journal path")
        if head.get("run") != run:
            raise JournalError(
                f"{self.path} was written by another run of "
                f"{experiment_id!r} (a different sweep plan, machine, "
                "fault plan, seed or code); pass a fresh --journal path")

    # -- recording ------------------------------------------------------

    def open(self, experiment_id: str, run: str) -> None:
        """Start recording; writes the binding header on a new file."""
        if not os.path.exists(self.path) or \
                os.path.getsize(self.path) == 0:
            jsonl.append(self.path, journal_header(experiment_id, run))
        self._open = True

    def record(self, key: str, value) -> None:
        """Append one completion; durable (flush + fsync) on return."""
        if not self._open:
            raise JournalError("journal is not open for recording")
        jsonl.append(self.path, journal_record(key, value))
        self.recorded += 1

    def close(self) -> None:
        self._open = False

    def __enter__(self) -> "SweepJournal":
        return self

    def __exit__(self, *exc) -> None:
        self.close()

    def stats(self) -> Dict[str, int]:
        return {"replayed": self.replayed, "skipped": self.skipped,
                "recorded": self.recorded}

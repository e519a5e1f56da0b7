"""The crash-safe sweep journal: append, replay, torn-tail tolerance."""

import json

import pytest

from repro.core import spp1000
from repro.core.canon import stable_hash
from repro.exec.journal import (
    JOURNAL_SCHEMA,
    JournalError,
    SweepJournal,
    journal_header,
    journal_record,
)
from repro.exec.pool import WorkerPool
from repro.exec.units import WorkUnit
from repro.experiments.base import ExperimentResult, register


def _plan_journal(config, quick=False):
    return [WorkUnit("_journal_sq", f"j:{i}", {"i": i}) for i in range(5)]


def _run_journal(params, config):
    return {"sq": params["i"] ** 2}


def _assemble_journal(values, config, quick=False):
    return ExperimentResult("_journal_sq", "synthetic journal squares",
                            data=dict(values))


register("_journal_sq", "synthetic journal squares", run=_assemble_journal,
         plan_units=_plan_journal, unit=_run_journal)


def test_journal_roundtrip(tmp_path):
    path = str(tmp_path / "sweep.jsonl")
    journal = SweepJournal(path)
    assert journal.replay("exp", "run-a") == {}
    journal.open("exp", "run-a")
    journal.record("k:1", {"v": 1.5})
    journal.record("k:2", [1, 2, 3])
    journal.close()

    again = SweepJournal(path)
    done = again.replay("exp", "run-a")
    assert done == {"k:1": {"v": 1.5}, "k:2": [1, 2, 3]}
    assert again.replayed == 2 and again.skipped == 0
    header = json.loads(open(path).readline())
    assert header["journal"] == JOURNAL_SCHEMA == 3
    assert header["experiment_id"] == "exp"
    assert header["run"] == "run-a"


def test_journal_survives_torn_tail(tmp_path):
    path = str(tmp_path / "sweep.jsonl")
    with SweepJournal(path) as journal:
        journal.open("exp", "r")
        journal.record("k:1", 11)
        journal.record("k:2", 22)
    # crash residue: the last append died halfway through the line
    with open(path, "a", encoding="utf-8") as fh:
        fh.write('{"key": "k:3", "val')

    again = SweepJournal(path)
    done = again.replay("exp", "r")
    assert done == {"k:1": 11, "k:2": 22}
    assert again.skipped == 1


def test_append_after_torn_tail_starts_a_fresh_line(tmp_path):
    """The first completion journaled after a crash must not be merged
    into the torn line (and lost with it on the next replay)."""
    path = str(tmp_path / "sweep.jsonl")
    with SweepJournal(path) as journal:
        journal.open("exp", "r")
        journal.record("k:1", 11)
        journal.record("k:2", 22)
    with open(path, "rb") as fh:
        data = fh.read()
    with open(path, "wb") as fh:
        fh.write(data[:-10])  # crash residue: the last line torn

    resumed = SweepJournal(path)
    assert resumed.replay("exp", "r") == {"k:1": 11}
    resumed.open("exp", "r")
    resumed.record("k:3", 33)
    resumed.record("k:4", 44)
    resumed.close()

    again = SweepJournal(path)
    assert again.replay("exp", "r") == {"k:1": 11, "k:3": 33, "k:4": 44}
    assert again.skipped == 1


def test_checksum_covers_the_key(tmp_path):
    """An edited key must not replay someone else's value."""
    path = str(tmp_path / "sweep.jsonl")
    with SweepJournal(path) as journal:
        journal.open("exp", "r")
        journal.record("k:1", 11)
        journal.record("k:2", 22)
    lines = open(path).read().splitlines()
    record = json.loads(lines[-1])
    record["key"] = "k:1"
    lines[-1] = json.dumps(record, sort_keys=True, separators=(",", ":"))
    with open(path, "w", encoding="utf-8") as fh:
        fh.write("\n".join(lines) + "\n")

    again = SweepJournal(path)
    assert again.replay("exp", "r") == {"k:1": 11}
    assert again.skipped == 1


def test_journal_shapes_are_stable(tmp_path):
    assert journal_header("fig3", "abc123") == {
        "journal": JOURNAL_SCHEMA, "experiment_id": "fig3",
        "run": "abc123"}
    assert journal_record("u:1", {"v": 2}) == {"key": "u:1",
                                              "value": {"v": 2}}
    # on disk each line carries sha256 over the rest of the line
    path = str(tmp_path / "sweep.jsonl")
    with SweepJournal(path) as journal:
        journal.open("fig3", "abc123")
        journal.record("u:1", {"v": 2})
    header, record = (json.loads(line) for line in open(path))
    assert header == {"journal": 3, "experiment_id": "fig3",
                      "run": "abc123",
                      "sha256": stable_hash(journal_header("fig3",
                                                           "abc123"))}
    assert record == {"key": "u:1", "value": {"v": 2},
                      "sha256": stable_hash({"key": "u:1",
                                             "value": {"v": 2}})}


def test_journal_skips_checksum_failed_lines(tmp_path):
    path = str(tmp_path / "sweep.jsonl")
    with SweepJournal(path) as journal:
        journal.open("exp", "r")
        journal.record("k:1", 11)
    # a bit-flipped value no longer matches its recorded checksum
    lines = open(path).read().splitlines()
    record = json.loads(lines[1])
    record["value"] = 999
    with open(path, "w", encoding="utf-8") as fh:
        fh.write(lines[0] + "\n" + json.dumps(record) + "\n")

    again = SweepJournal(path)
    assert again.replay("exp", "r") == {}
    assert again.skipped == 1


def test_journal_refuses_other_experiment(tmp_path):
    path = str(tmp_path / "sweep.jsonl")
    with SweepJournal(path) as journal:
        journal.open("fig3", "r")
        journal.record("k", 1)
    with pytest.raises(JournalError, match="belongs to experiment"):
        SweepJournal(path).replay("fig7", "r")


def test_journal_refuses_another_run(tmp_path):
    """Same experiment, another plan/machine/seed/code: refused, and
    the file is left as it was."""
    path = tmp_path / "sweep.jsonl"
    with SweepJournal(str(path)) as journal:
        journal.open("fig3", "run-a")
        journal.record("k", 1)
    before = path.read_bytes()
    with pytest.raises(JournalError, match="another run of 'fig3'"):
        SweepJournal(str(path)).replay("fig3", "run-b")
    assert path.read_bytes() == before


def test_journal_refuses_schema_2_header(tmp_path):
    """A v2 header bound only the experiment id: refused, not replayed."""
    from repro.core import jsonl

    path = str(tmp_path / "sweep.jsonl")
    jsonl.append(path, {"journal": 2, "experiment_id": "fig3",
                        "fingerprint": "abc123"})
    jsonl.append(path, journal_record("k", 1))
    with pytest.raises(JournalError, match="uses journal schema 2"):
        SweepJournal(path).replay("fig3", "r")


def test_journal_refuses_non_journal_file(tmp_path):
    path = tmp_path / "not-a-journal.jsonl"
    path.write_text("just some text\n")
    with pytest.raises(JournalError, match="not a sweep journal"):
        SweepJournal(str(path)).replay("exp", "r")


def test_journal_append_survives_resume(tmp_path):
    """Re-opening an existing journal appends, never truncates."""
    path = str(tmp_path / "sweep.jsonl")
    with SweepJournal(path) as journal:
        journal.open("exp", "r")
        journal.record("k:1", 1)
    second = SweepJournal(path)
    assert second.replay("exp", "r") == {"k:1": 1}
    second.open("exp", "r")
    second.record("k:2", 2)
    second.close()
    assert SweepJournal(path).replay("exp", "r") == {"k:1": 1, "k:2": 2}


def test_journal_records_pool_completions_and_resumes(tmp_path):
    """on_complete journals units as they finish; a 'crashed' sweep
    replays them and re-executes only the incomplete units."""
    path = str(tmp_path / "sweep.jsonl")
    units = _plan_journal(None)
    config = spp1000()

    journal = SweepJournal(path)
    journal.open("_journal_sq", "r")
    WorkerPool(2).map_units(
        units[:3], config,   # "crash" after the first three units
        on_complete=lambda u, v: journal.record(u.key, v))
    journal.close()
    assert journal.recorded == 3

    resumed = SweepJournal(path)
    done = resumed.replay("_journal_sq", "r")
    assert set(done) == {"j:0", "j:1", "j:2"}
    todo = [u for u in units if u.key not in done]
    assert [u.key for u in todo] == ["j:3", "j:4"]
    rest = WorkerPool(1).map_units(todo, config)
    merged = {**done, **rest}
    clean = WorkerPool(1).map_units(units, config)
    assert merged == clean

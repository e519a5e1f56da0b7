"""The shared event schema: emit-site validation, round-trips, and the
one-schema-everywhere contract (progress JSONL, wire)."""

import json

import pytest

from repro.core import spp1000
from repro.exec import execute
from repro.exec.events import (
    EVENT_KINDS,
    EVENT_SCHEMA,
    EventSchemaError,
    make_event,
    validate_event,
)
from repro.exec.progress import ProgressStream

# representative field values for every required field in the tables
_SAMPLES = {
    "experiment": "fig3", "units": 4, "to_compute": 2,
    "cache_hits": 2, "jobs": 1, "key": "u:1",
    "done": 1, "total": 4, "computed": 2, "cache_hit_rate": 0.5,
    "wall_s": 0.1, "attempt": 1, "max_attempts": 3, "where": "worker",
    "error": "boom", "backoff_s": 0.1, "pid": 123, "elapsed_s": 9.0,
    "timeout_s": 5.0, "reason": "x", "attempts": 3, "pass": "warm",
}


def _sample(kind):
    return {f: _SAMPLES[f] for f in EVENT_KINDS[kind]}


def test_every_kind_round_trips():
    for kind in EVENT_KINDS:
        record = make_event(kind, **_sample(kind))
        assert record["event"] == kind
        assert record["schema"] == EVENT_SCHEMA
        # survives JSON (the wire, the progress file)
        revived = json.loads(json.dumps(record))
        assert validate_event(revived) == kind
        assert revived == record


def test_make_event_rejects_unknown_kind():
    with pytest.raises(EventSchemaError, match="unknown event kind"):
        make_event("frobnicate")


def test_make_event_rejects_missing_fields():
    with pytest.raises(EventSchemaError) as excinfo:
        make_event("retry", key="u:1")
    message = str(excinfo.value)
    assert "retry" in message and "missing" in message


def test_validate_event_rejects_foreign_schema():
    record = make_event("unit", **_sample("unit"))
    record["schema"] = EVENT_SCHEMA + 1
    with pytest.raises(EventSchemaError, match="schema"):
        validate_event(record)


def test_validate_event_allows_extra_fields():
    record = make_event("unit", **_sample("unit"))
    record["t_s"] = 1.25
    record["eta_s"] = None
    assert validate_event(record) == "unit"


def test_validate_event_rejects_non_record():
    with pytest.raises(EventSchemaError):
        validate_event(["not", "a", "record"])
    with pytest.raises(EventSchemaError):
        validate_event({"no_event_field": True})


def test_progress_stream_emits_schema_stamped_records(tmp_path):
    """An end-to-end sweep's --progress JSONL validates record by
    record against the shared schema — the same records the server
    streams on the wire."""
    path = tmp_path / "progress.jsonl"
    with ProgressStream(str(path)) as stream:
        execute("fig3", spp1000(), quick=True, progress=stream)
    kinds = []
    for line in path.read_text().splitlines():
        record = json.loads(line)
        kinds.append(validate_event(record))
        assert record["schema"] == EVENT_SCHEMA
        assert "t_s" in record
    assert kinds[0] == "start"
    assert kinds[-1] == "done"
    assert "unit" in kinds

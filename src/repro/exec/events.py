"""The shared event schema: every telemetry record the fabric emits.

Two consumers speak the same record shapes — the ``--progress`` JSONL
stream (:mod:`repro.exec.progress`) and the ``repro.server`` wire
protocol (:mod:`repro.server.protocol`) — so their shapes live here,
once.  Every live-telemetry record carries:

* ``event``  — the kind (one of :data:`EVENT_KINDS`);
* ``schema`` — :data:`EVENT_SCHEMA`, so a reader written against one
  generation of the stream can refuse (or adapt to) another instead of
  silently misparsing it.  Schema 2 dropped the checkpoint count from
  ``start``.

Producers build records with :func:`make_event`, which enforces the
required fields at the emit site; consumers call :func:`validate_event`
and get one actionable error line naming exactly what is wrong (unknown
kind, missing field, foreign schema).  Optional enrichments (``t_s``,
``eta_s``, per-unit host timings, worker occupancy) ride along freely:
validation pins the floor of each shape, not its ceiling.

The crash-safe sweep journal is not a telemetry stream: its line
shapes live with the only code that writes and reads them,
:mod:`repro.exec.journal`.

Kinds (``EVENT_KINDS``):

``start``            the plan: unit totals, cache hits, jobs
``unit``             one completed work unit, as it completes
``done``             the final tally of a sweep
``retry``            a failed attempt is being retried (with backoff)
``hung_worker``      a worker blew ``--unit-timeout`` and was replaced
``serial_fallback``  the pool collapsed; a unit runs in-process
``quarantine``       a unit exhausted every attempt (poison)
"""

from __future__ import annotations

from typing import Dict, Optional

__all__ = ["EVENT_SCHEMA", "EVENT_KINDS", "EventSchemaError",
           "make_event", "validate_event"]

EVENT_SCHEMA = 2

#: kind -> required fields (beyond ``event`` and ``schema``)
EVENT_KINDS: Dict[str, frozenset] = {
    "start": frozenset({"experiment", "units", "to_compute",
                        "cache_hits", "jobs"}),
    "unit": frozenset({"key", "done", "total"}),
    "done": frozenset({"experiment", "computed", "cache_hits",
                       "cache_hit_rate", "wall_s"}),
    "retry": frozenset({"key", "attempt", "max_attempts", "where",
                        "error", "backoff_s"}),
    "hung_worker": frozenset({"key", "pid", "elapsed_s", "timeout_s"}),
    "serial_fallback": frozenset({"key", "reason"}),
    "quarantine": frozenset({"key", "attempts", "error"}),
}


class EventSchemaError(ValueError):
    """A record does not match the shared event schema; str() says why."""


def make_event(kind: str, **fields) -> Dict:
    """Build one schema-stamped telemetry record.

    Raises :class:`EventSchemaError` at the *emit* site when a producer
    forgets a required field — a malformed record should never reach a
    stream, a journal, or the wire.
    """
    try:
        required = EVENT_KINDS[kind]
    except KeyError:
        raise EventSchemaError(
            f"unknown event kind {kind!r}; known kinds: "
            f"{', '.join(sorted(EVENT_KINDS))}") from None
    missing = sorted(required - fields.keys())
    if missing:
        raise EventSchemaError(
            f"event {kind!r} is missing required field(s) "
            f"{', '.join(missing)}; required: {', '.join(sorted(required))}")
    record: Dict = {"event": kind, "schema": EVENT_SCHEMA}
    record.update(fields)
    return record


def validate_event(record, *, schema: Optional[int] = EVENT_SCHEMA) -> str:
    """Check one parsed record against the schema; returns its kind.

    Raises :class:`EventSchemaError` with one actionable line on an
    unknown kind, a missing required field, or (unless ``schema=None``)
    a record stamped with a different schema generation.  Extra fields
    are always allowed.
    """
    if not isinstance(record, dict):
        raise EventSchemaError(
            f"event record must be a JSON object, got "
            f"{type(record).__name__}")
    kind = record.get("event")
    if kind not in EVENT_KINDS:
        raise EventSchemaError(
            f"unknown event kind {kind!r}; known kinds: "
            f"{', '.join(sorted(EVENT_KINDS))}")
    stamped = record.get("schema")
    if stamped != EVENT_SCHEMA and schema is not None:
        raise EventSchemaError(
            f"event {kind!r} carries schema {stamped!r}, this build "
            f"reads schema {EVENT_SCHEMA}; regenerate the stream with a "
            "matching producer")
    missing = sorted(EVENT_KINDS[kind] - record.keys())
    if missing:
        raise EventSchemaError(
            f"event {kind!r} is missing required field(s) "
            f"{', '.join(missing)}")
    return kind


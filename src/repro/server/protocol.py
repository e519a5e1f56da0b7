"""The wire protocol: versioned newline-delimited JSON (NDJSON).

One connection = one NDJSON stream each way; every line is a single
JSON object ("message") with a ``kind`` field.  The first client
message must be ``hello`` carrying :data:`PROTOCOL_VERSION`; the server
answers ``welcome`` (or ``error`` + close on a version it cannot
speak).  After the handshake the client may interleave ``submit``,
``cancel``, ``list`` and ``ping`` freely; the server multiplexes
``event`` streams for every job the connection submitted, terminated
per job by exactly one ``result``, ``error`` or ``cancelled``.

Message kinds
=============

Client -> server:

``hello``   ``{"kind", "protocol", "client"?}`` — handshake, first line
``submit``  ``{"kind", "experiment", "tag"?, "quick"?, "jobs"?,
            "seed"?, "hypernodes"?, "priority"?, "telemetry"?,
            "trace"?}`` — ``trace`` is ``{"trace_id": ...}``, normally
            minted by the SDK for end-to-end trace stitching
``cancel``  ``{"kind", "job"}`` — queued or running job
``list``    ``{"kind"}`` — the experiment catalog
``stats``   ``{"kind"}`` — live server stats
``ping``    ``{"kind"}``

Server -> client:

``welcome``      ``{"kind", "protocol", "server", "experiments"}`` —
                 ``experiments`` maps each experiment id to its
                 ``{"title"}``
``accepted``     ``{"kind", "job", "tag"?, "experiment", "priority",
                 "queued", "trace"?}`` — ``trace`` echoes the job's
                 trace/job IDs (server-minted when the submit had none)
``event``        ``{"kind", "job", "record", "coalesced"?}`` — the
                 ``record`` is one shared-schema telemetry record
                 (:mod:`repro.exec.events`), exactly what ``--progress``
                 would have written, so one consumer handles both;
                 traced jobs stamp ``trace_id``/``job_id`` into it
``result``       ``{"kind", "job", "experiment", "data", "execution",
                 "blocks"?, "manifest"?, "wall_s", "trace"?,
                 "host_spans"?}`` — ``host_spans`` are the server-side
                 queue/run/unit spans for Chrome-trace stitching
``stats``        ``{"kind", "stats"}`` — reply to ``stats``
``cancelled``    ``{"kind", "job", "where"}`` — ``queue`` or ``running``
``error``        ``{"kind", "error", "detail", "job"?,
                 "retry_after_s"?}`` — ``detail`` is always one
                 actionable line
``experiments``  ``{"kind", "experiments"}`` — reply to ``list``
``pong``         ``{"kind"}``
``bye``          ``{"kind", "reason"}`` — graceful drain; no further
                 messages follow

Anything malformed gets an ``error`` with ``error="bad_message"`` and
one line saying exactly what was wrong; the connection stays usable
(only a failed handshake closes it).
"""

from __future__ import annotations

import json
from typing import Dict

__all__ = ["PROTOCOL_VERSION", "SERVER_NAME", "DEFAULT_PORT",
           "MAX_LINE_BYTES", "CLIENT_KINDS", "SERVER_KINDS",
           "ProtocolError", "encode", "decode", "validate_message"]

PROTOCOL_VERSION = 1

SERVER_NAME = "repro.server/1"

#: default TCP port for ``python -m repro serve``
DEFAULT_PORT = 7995

#: per-line ceiling; a sweep's result document fits comfortably, an
#: accidental binary blob or runaway payload does not
MAX_LINE_BYTES = 32 * 1024 * 1024

#: kind -> required fields (beyond ``kind``), client-to-server side
CLIENT_KINDS: Dict[str, frozenset] = {
    "hello": frozenset({"protocol"}),
    "submit": frozenset({"experiment"}),
    "cancel": frozenset({"job"}),
    "list": frozenset(),
    "stats": frozenset(),
    "ping": frozenset(),
}

#: kind -> required fields (beyond ``kind``), server-to-client side
SERVER_KINDS: Dict[str, frozenset] = {
    "welcome": frozenset({"protocol", "server", "experiments"}),
    "accepted": frozenset({"job", "experiment", "priority", "queued"}),
    "event": frozenset({"job", "record"}),
    "result": frozenset({"job", "experiment", "data", "execution",
                         "wall_s"}),
    "cancelled": frozenset({"job", "where"}),
    "stats": frozenset({"stats"}),
    "error": frozenset({"error", "detail"}),
    "experiments": frozenset({"experiments"}),
    "pong": frozenset(),
    "bye": frozenset({"reason"}),
}


class ProtocolError(ValueError):
    """A line violated the wire protocol; str() is one actionable line."""


def encode(message: Dict) -> bytes:
    """One message as one UTF-8 NDJSON line (compact, trailing newline)."""
    return (json.dumps(message, separators=(",", ":"), sort_keys=False)
            + "\n").encode("utf-8")


def decode(line: bytes) -> Dict:
    """Parse one received line into a message object.

    Raises :class:`ProtocolError` (one actionable line) on non-JSON
    input, a JSON value that is not an object, or a missing ``kind``.
    """
    try:
        message = json.loads(line.decode("utf-8"))
    except (UnicodeDecodeError, ValueError) as exc:
        raise ProtocolError(
            f"not a JSON line ({exc}); every protocol message is one "
            "newline-terminated JSON object") from None
    if not isinstance(message, dict):
        raise ProtocolError(
            f"expected a JSON object per line, got "
            f"{type(message).__name__}")
    if "kind" not in message:
        raise ProtocolError(
            "message has no 'kind' field; every message must name its "
            f"kind (client kinds: {', '.join(sorted(CLIENT_KINDS))})")
    return message


def validate_message(message: Dict, *, side: str) -> str:
    """Check a decoded message against one side's kind table.

    ``side`` is ``"client"`` (messages a server receives) or
    ``"server"`` (messages a client receives).  Returns the kind;
    raises :class:`ProtocolError` on an unknown kind or missing
    required fields.  Extra fields are always allowed.
    """
    kinds = CLIENT_KINDS if side == "client" else SERVER_KINDS
    kind = message.get("kind")
    if kind not in kinds:
        raise ProtocolError(
            f"unknown {side} message kind {kind!r}; valid kinds: "
            f"{', '.join(sorted(kinds))}")
    missing = sorted(kinds[kind] - message.keys())
    if missing:
        raise ProtocolError(
            f"{side} message {kind!r} is missing required field(s) "
            f"{', '.join(missing)}")
    return kind

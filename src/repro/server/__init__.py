"""Simulation-as-a-service: the ``repro.server`` subsystem.

``python -m repro serve`` starts an asyncio TCP server that accepts
simulate/sweep/list jobs over a versioned NDJSON protocol
(:mod:`repro.server.protocol`), runs them through the same execution
fabric as the one-shot CLI (planner, supervised pool, content-addressed
cache, shared event schema), and streams per-unit telemetry back to
each submitting client live.  :mod:`repro.sdk` is the matching typed
client.  Stdlib only — no new runtime dependencies.
"""

from .protocol import (
    CLIENT_KINDS,
    DEFAULT_PORT,
    MAX_LINE_BYTES,
    PROTOCOL_VERSION,
    SERVER_KINDS,
    SERVER_NAME,
    ProtocolError,
    decode,
    encode,
    validate_message,
)
from .server import (
    JobCancelled,
    JobSpec,
    ReproServer,
    ServerThread,
    TokenBucket,
)

__all__ = [
    "PROTOCOL_VERSION", "SERVER_NAME", "DEFAULT_PORT", "MAX_LINE_BYTES",
    "CLIENT_KINDS", "SERVER_KINDS", "ProtocolError", "encode", "decode",
    "validate_message",
    "ReproServer", "ServerThread", "JobCancelled", "JobSpec",
    "TokenBucket",
    "serve_main",
]


def serve_main(argv=None) -> int:
    """``python -m repro serve`` entry point (lazy import)."""
    from .cli import serve_main as _serve_main

    return _serve_main(argv)

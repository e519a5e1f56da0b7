"""Live sweep telemetry: one JSON object per line as a run progresses.

``python -m repro <exp> --progress [FILE]`` attaches a
:class:`ProgressStream` to the execution fabric.  Each record is a
single line of JSON (JSONL) so it can be tailed, piped to ``jq``, or
consumed by a dashboard while the sweep is still running:

* ``{"event": "start", ...}`` — the plan: unit count, jobs, cache root;
* ``{"event": "unit", ...}``  — one per completed unit, as it
  completes (out of plan order under ``--jobs N``), with the unit's
  host-timing split, running ETA, cache hit-rate and worker occupancy;
* ``{"event": "done", ...}``  — the final tally.

Record shapes are defined once in :mod:`repro.exec.events` (the shared
event schema, also spoken by the ``repro.server`` wire protocol); every
record carries an ``event`` kind and a ``schema`` generation, and
producers build them with :func:`repro.exec.events.make_event`.

Every record carries ``t_s``, seconds since the stream was opened.
``"-"`` (the default destination) writes to stderr so stdout stays
clean for tables and ``--json`` documents; any other destination is
treated as a file path, truncated at open.  The stream never buffers:
each record is flushed as written, so a reader sees a unit the moment
it finishes.
"""

from __future__ import annotations

import json
import sys
import time
from typing import Dict, Optional, TextIO

__all__ = ["ProgressStream"]


class ProgressStream:
    """Writes JSONL telemetry records to stderr or a file."""

    def __init__(self, destination: str = "-"):
        self.destination = destination
        self._t0 = time.monotonic()
        self._owns_handle = destination != "-"
        if self._owns_handle:
            self._fh: Optional[TextIO] = open(destination, "w",
                                              encoding="utf-8")
        else:
            self._fh = sys.stderr

    def emit(self, record: Dict) -> None:
        """Write one record (plus ``t_s``) as a single flushed line."""
        if self._fh is None:
            return
        payload = {"t_s": round(time.monotonic() - self._t0, 3)}
        payload.update(record)
        self._fh.write(json.dumps(payload) + "\n")
        self._fh.flush()

    def close(self) -> None:
        if self._owns_handle and self._fh is not None:
            self._fh.close()
        self._fh = None

    def __enter__(self) -> "ProgressStream":
        return self

    def __exit__(self, *exc) -> None:
        self.close()

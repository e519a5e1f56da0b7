"""Checksummed, crash-tolerant JSONL: one self-checksummed object a line.

The performance ledger (:mod:`repro.obs.ledger`) is this module's one
user: its append-only history file is written and read here.

Writing — :func:`append` stamps ``sha256`` = :func:`checksum` of the
object (the :func:`~repro.core.canon.stable_hash` of everything except
``sha256`` itself), writes it as one JSON line with every dict's keys
in the order they were built (the checksum is over canonical, sorted
JSON, so it does not depend on that order), then flushes and
``fsync``-s: the line is durable when the call returns.  A crash
mid-append leaves a torn, newline-less tail; the next append starts on
a fresh line, so the torn line stays one skipped line instead of
swallowing the object written after it.

Reading — :func:`read` returns the intact objects plus the count of
skipped lines: torn, unparsable, not an object, or failing the
checksum.  Skipping is the recovery contract — it never raises, and a
damaged line can only cost its own object, never smuggle a wrong one
in.
"""

from __future__ import annotations

import json
import os
from typing import Dict, List, Tuple

from .canon import stable_hash

__all__ = ["checksum", "append", "read"]


def checksum(obj: Dict) -> str:
    """SHA-256 of the canonical JSON of ``obj`` minus its ``sha256`` key."""
    return stable_hash({k: v for k, v in obj.items() if k != "sha256"})


def append(path: str, obj: Dict) -> Dict:
    """Stamp ``obj`` with its checksum and append it as one line.

    Returns the stamped copy.  Durable (flush + fsync) on return.
    """
    stamped = dict(obj)
    stamped["sha256"] = checksum(stamped)
    line = json.dumps(stamped, separators=(",", ":")) + "\n"
    parent = os.path.dirname(path)
    if parent:
        os.makedirs(parent, exist_ok=True)
    with open(path, "a+b") as fh:
        if fh.seek(0, os.SEEK_END):
            fh.seek(-1, os.SEEK_END)
            if fh.read(1) != b"\n":
                line = "\n" + line  # heal a torn tail left by a crash
        fh.write(line.encode("ascii"))
        fh.flush()
        os.fsync(fh.fileno())
    return stamped


def read(path: str) -> Tuple[List[Dict], int]:
    """The intact objects in the file at ``path`` and the count of
    skipped lines; ``([], 0)`` when it cannot be opened."""
    try:
        fh = open(path, encoding="utf-8", errors="replace")
    except OSError:
        return [], 0
    objects: List[Dict] = []
    skipped = 0
    with fh:
        for line in fh:
            if not line.strip():
                continue
            try:
                obj = json.loads(line)
            except ValueError:
                skipped += 1
                continue
            if isinstance(obj, dict) and obj.get("sha256") == checksum(obj):
                objects.append(obj)
            else:
                skipped += 1
    return objects, skipped

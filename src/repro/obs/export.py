"""The Chrome trace-event JSON that ``--trace`` writes and ``timeline``
reads.

The Chrome format is the `trace-event`_ JSON that Perfetto and
``chrome://tracing`` load directly: a ``traceEvents`` array whose
records carry ``ph`` (phase letter), ``ts`` (microseconds), ``pid``,
``tid``, ``name``, ``cat``, ``args``.  We map simulated hypernodes to
processes and simulated CPUs to threads, so a loaded trace shows one
track per CPU grouped by hypernode — the same mental picture as the
paper's per-processor CXpa views.

.. _trace-event: https://docs.google.com/document/d/1CvAClvFfyA5R-PhYUmn5OOQtYMH4h6I0nSsKchNAySU
"""

from __future__ import annotations

import json
from typing import Dict, List, Optional

from ..core.config import MachineConfig
from ..sim.trace import TraceEvent, Tracer

__all__ = ["chrome_trace", "write_chrome_trace", "load_trace",
           "load_trace_checked"]

_NS_PER_US = 1000.0


def _event_dict(ev: TraceEvent) -> Dict:
    d: Dict = {"name": ev.name, "cat": ev.cat, "ph": ev.ph,
               "ts": ev.ts / _NS_PER_US, "pid": ev.pid, "tid": ev.tid}
    if ev.ph == "X":
        d["dur"] = ev.dur / _NS_PER_US
    if ev.ph == "i":
        d["s"] = "t"  # instant scoped to its thread track
    if ev.args:
        d["args"] = ev.args
    return d


def _metadata(name: str, pid: int, tid: int = 0,
              label: str = "") -> Dict:
    return {"name": name, "ph": "M", "ts": 0.0, "pid": pid, "tid": tid,
            "args": {"name": label}}


def chrome_trace(tracer: Tracer,
                 config: Optional[MachineConfig] = None) -> Dict:
    """The full Chrome trace-event document for one tracer's events.

    With a ``config``, every simulated CPU gets a named thread track
    (even idle ones) so the Perfetto view always shows the machine's
    full width; without one, tracks are created only for CPUs that
    emitted events.
    """
    events: List[Dict] = []
    pids = {ev.pid for ev in tracer.events}
    tids = {(ev.pid, ev.tid) for ev in tracer.events}
    if config is not None:
        per_hn = config.fus_per_hypernode * config.cpus_per_fu
        for hn in range(config.n_hypernodes):
            pids.add(hn)
            for cpu in range(hn * per_hn, (hn + 1) * per_hn):
                tids.add((hn, cpu))
    for pid in sorted(pids):
        events.append(_metadata("process_name", pid,
                                label=f"hypernode {pid}"))
    for pid, tid in sorted(tids):
        events.append(_metadata("thread_name", pid, tid,
                                label=f"cpu {tid}"))
    events.extend(_event_dict(ev) for ev in tracer.events)
    # Legacy TraceRecords (coherence/protocol occurrences) ride along as
    # thread-scoped instants on a dedicated "machine events" process.
    if tracer.records:
        mpid = (config.n_hypernodes if config is not None
                else max(pids, default=-1) + 1)
        events.append(_metadata("process_name", mpid,
                                label="machine events"))
        for rec in tracer.records:
            events.append({"name": rec.category, "cat": "machine",
                           "ph": "i", "s": "t",
                           "ts": rec.time / _NS_PER_US,
                           "pid": mpid, "tid": 0,
                           "args": {"payload": list(rec.payload)}})
    return {
        "traceEvents": events,
        "displayTimeUnit": "ns",
        "otherData": {
            "source": "repro.obs (simulated Convex SPP-1000)",
            "counters": tracer.counters,
        },
    }


def write_chrome_trace(tracer: Tracer, path: str,
                       config: Optional[MachineConfig] = None) -> None:
    """Write the Chrome trace JSON to ``path``."""
    with open(path, "w", encoding="utf-8") as fh:
        json.dump(chrome_trace(tracer, config), fh, indent=None,
                  default=_fallback)


def load_trace(path: str) -> List[Dict]:
    """The event dicts of a Chrome trace JSON document (the object that
    :func:`write_chrome_trace` and ``Job.write_trace`` write).

    Raises ValueError for anything else: a file that is not JSON, a
    bare array, or an object whose ``traceEvents`` is not a list of
    event objects.
    """
    with open(path, "r", encoding="utf-8") as fh:
        doc = json.load(fh)
    events = doc.get("traceEvents") if isinstance(doc, dict) else None
    if not (isinstance(events, list)
            and all(isinstance(ev, dict) for ev in events)):
        raise ValueError("not a JSON object whose 'traceEvents' is a list "
                         "of event objects")
    return events


def load_trace_checked(path: str) -> Optional[List[Dict]]:
    """Load a trace file for ``timeline --trace``, or print why it
    cannot be used.

    Returns the event list, or ``None`` after printing one actionable
    line naming the path, so a missing, unreadable, corrupt, or empty
    trace never tracebacks.
    """
    import sys

    try:
        events = load_trace(path)
    except OSError as exc:
        reason = exc.strerror or str(exc)
        print(f"cannot read trace file {path}: {reason}", file=sys.stderr)
        return None
    except ValueError as exc:
        print(f"cannot parse trace file {path}: {exc}; expected a Chrome "
              "trace JSON written by --trace", file=sys.stderr)
        return None
    if not events:
        print(f"trace file {path} contains no events; re-run the "
              "experiment with --trace to capture one", file=sys.stderr)
        return None
    return events


def _fallback(obj):
    """JSON serializer of last resort (numpy scalars, sets, enums)."""
    if hasattr(obj, "item"):  # numpy scalar
        return obj.item()
    if isinstance(obj, (set, frozenset)):
        return sorted(obj)
    return str(obj)

"""End-to-end trace context: one trace ID from SDK client to simulated time.

The profilers trace *inside* a run; :class:`TraceContext` traces *around*
one — the host-side story of a job: the client that submitted it, the
server queue it waited in, the pool workers that computed its units, and
finally the simulated-time spans the run itself produced.  A context is
minted at the outermost edge (normally :meth:`repro.sdk.Client.submit`),
rides the NDJSON protocol as a ``trace`` field on ``submit`` /
``accepted`` / ``event`` / ``result`` messages, is installed ambiently
around the server-side run (:func:`use_tracectx`, same stack discipline
as :func:`repro.sim.trace.use_tracer`), and stamps every unit progress
record the execution fabric emits.  :func:`stitch_chrome_trace` then
merges all of it with the run's simulated-time Chrome trace so one file
answers "where did this job's wall time go" end to end.

Two clocks, one file: host spans carry epoch ``time.time()`` seconds
(comparable across processes on one host, and approximately across
hosts); simulated spans carry simulated nanoseconds from t=0.  The
stitcher keeps them on separate process tracks and leaves simulated
time untranslated — the point is side-by-side attribution with a shared
``trace_id`` in every span's ``args``, not a fictitious unified clock.

Perturbation contract: like every :mod:`repro.obs` tool, a trace
context never touches simulated state.  The execution fabric checks
:func:`active_tracectx` exactly once per run (one None-check when off)
and only annotates host-side progress records — results and final
simulated clocks are bit-identical either way (asserted by
``tests/exec/test_tracectx_exec.py``).
"""

from __future__ import annotations

import json
import secrets
import time
from contextlib import contextmanager
from dataclasses import dataclass, field
from typing import Dict, List, Optional

from ..core.ambient import Slot

__all__ = ["TraceContext", "mint_trace_id", "use_tracectx",
           "active_tracectx", "stitch_chrome_trace", "write_chrome_json"]

#: host spans kept per context before further ones are counted, not kept
#: (a 2000-unit sweep should not mail a 2000-span attachment per job)
MAX_SPANS = 1000

_S_PER_US = 1e-6


def mint_trace_id() -> str:
    """A fresh 64-bit trace ID as 16 lowercase hex characters."""
    return secrets.token_hex(8)


@dataclass
class HostSpan:
    """One host-time span: epoch-second bounds plus attribution args."""

    name: str
    t0: float
    t1: float
    cat: str = "host"
    origin: str = "local"      # client | server | pool | local
    args: Dict = field(default_factory=dict)

    def to_dict(self) -> Dict:
        d = {"name": self.name, "t0": self.t0, "t1": self.t1,
             "cat": self.cat, "origin": self.origin}
        if self.args:
            d["args"] = self.args
        return d

    @classmethod
    def from_dict(cls, d: Dict) -> "HostSpan":
        return cls(name=str(d.get("name", "?")),
                   t0=float(d.get("t0", 0.0)), t1=float(d.get("t1", 0.0)),
                   cat=str(d.get("cat", "host")),
                   origin=str(d.get("origin", "local")),
                   args=dict(d.get("args", {})))


@dataclass
class TraceContext:
    """The identity and host-span accumulator for one traced operation.

    ``origin`` names which leg of the journey this instance lives on
    (``client``/``server``/``pool``/``local``) and becomes the default
    for spans recorded through it.  Contexts are cheap; the wire carries
    only ``{"trace_id": ..., "job_id": ...}`` (:meth:`to_wire`), and
    each process reconstructs its own local instance.
    """

    trace_id: str = field(default_factory=mint_trace_id)
    job_id: Optional[str] = None
    origin: str = "local"
    spans: List[HostSpan] = field(default_factory=list)
    dropped: int = 0

    # -- recording -----------------------------------------------------

    def add_span(self, name: str, t0: float, t1: float, *,
                 cat: str = "host", origin: Optional[str] = None,
                 **args) -> None:
        """Record a closed host span; silently counts past :data:`MAX_SPANS`."""
        if len(self.spans) >= MAX_SPANS:
            self.dropped += 1
            return
        self.spans.append(HostSpan(name, t0, t1, cat=cat,
                                   origin=origin or self.origin,
                                   args=args))

    @contextmanager
    def span(self, name: str, *, cat: str = "host", **args):
        """Bracket a block of host work as one span."""
        t0 = time.time()
        try:
            yield self
        finally:
            self.add_span(name, t0, time.time(), cat=cat, **args)

    # -- wire helpers --------------------------------------------------

    def to_wire(self) -> Dict:
        """The identity fields a protocol message carries."""
        wire: Dict = {"trace_id": self.trace_id}
        if self.job_id is not None:
            wire["job_id"] = self.job_id
        return wire

    @classmethod
    def from_wire(cls, wire: Optional[Dict], *,
                  origin: str = "local") -> "TraceContext":
        """Rebuild a local context from a message's ``trace`` field.

        Tolerant by design: a missing/malformed field mints a fresh ID
        so an old client never breaks a new server (and vice versa).
        """
        if not isinstance(wire, dict) or not wire.get("trace_id"):
            return cls(origin=origin)
        job_id = wire.get("job_id")
        return cls(trace_id=str(wire["trace_id"]),
                   job_id=str(job_id) if job_id is not None else None,
                   origin=origin)

    def stamp(self, record: Dict) -> Dict:
        """Add ``trace_id`` (and ``job_id``) to a progress/event record."""
        record["trace_id"] = self.trace_id
        if self.job_id is not None:
            record["job_id"] = self.job_id
        return record

    def spans_to_wire(self) -> List[Dict]:
        """The recorded spans as JSON-ready dicts (for ``result`` messages)."""
        return [s.to_dict() for s in self.spans]

    def extend_from_wire(self, spans: Optional[List[Dict]]) -> None:
        """Adopt spans shipped from another process (server → client)."""
        for d in spans or ():
            if isinstance(d, dict):
                if len(self.spans) >= MAX_SPANS:
                    self.dropped += 1
                    continue
                self.spans.append(HostSpan.from_dict(d))


# ---------------------------------------------------------------------------
# Ambient context (the same context-local slot as repro.sim.trace.use_tracer:
# the job server runs many jobs concurrently on different threads, each
# under its own context)
# ---------------------------------------------------------------------------

_TRACECTX: Slot[TraceContext] = Slot("repro.tracectx")

#: the context installed by :func:`use_tracectx` in this thread, or None
active_tracectx = _TRACECTX.get
#: ``with use_tracectx(ctx):`` — :func:`repro.exec.execute` adopts
#: ``ctx``: unit progress records get its trace/job IDs and per-unit pool
#: spans land in ``ctx.spans``
use_tracectx = _TRACECTX.use


# ---------------------------------------------------------------------------
# Stitching: host spans + simulated Chrome trace -> one Chrome document
# ---------------------------------------------------------------------------

#: fixed pids for the host-side process tracks; simulated pids are
#: shifted above these so hypernode 0 never collides with the client
_HOST_PIDS = {"client": 0, "server": 1, "pool": 2, "local": 3}
_SIM_PID_BASE = 10


def stitch_chrome_trace(trace_id: str,
                        host_spans: List[HostSpan],
                        sim_doc: Optional[Dict] = None,
                        job_id: Optional[str] = None) -> Dict:
    """One Chrome trace-event document covering host and simulated time.

    Host spans become ``X`` (complete) events on per-origin process
    tracks (``client`` / ``server`` / ``pool``), with ``ts`` rebased to
    the earliest host span so the file starts at 0.  ``sim_doc`` — a
    document from :func:`repro.obs.export.chrome_trace` — rides along
    with every pid shifted by :data:`_SIM_PID_BASE` and its process
    names prefixed ``sim:``, timestamps untouched (simulated µs).
    ``trace_id`` lands in every span's ``args`` and in ``otherData``.
    """
    events: List[Dict] = []
    origins = sorted({s.origin for s in host_spans} | {"client"},
                     key=lambda o: _HOST_PIDS.get(o, 9))
    for origin in origins:
        pid = _HOST_PIDS.get(origin, 9)
        events.append({"name": "process_name", "ph": "M", "ts": 0.0,
                       "pid": pid, "tid": 0,
                       "args": {"name": f"host: {origin}"}})
    t_base = min((s.t0 for s in host_spans), default=0.0)
    for s in host_spans:
        args = dict(s.args)
        args["trace_id"] = trace_id
        if job_id is not None:
            args.setdefault("job_id", job_id)
        events.append({
            "name": s.name, "cat": s.cat, "ph": "X",
            "ts": (s.t0 - t_base) / _S_PER_US,
            "dur": max(0.0, s.t1 - s.t0) / _S_PER_US,
            "pid": _HOST_PIDS.get(s.origin, 9), "tid": 0,
            "args": args,
        })
    other: Dict = {"trace_id": trace_id,
                   "source": "repro.obs.tracectx (stitched)"}
    if job_id is not None:
        other["job_id"] = job_id
    if sim_doc:
        for ev in sim_doc.get("traceEvents", ()):
            ev = dict(ev)
            ev["pid"] = int(ev.get("pid", 0)) + _SIM_PID_BASE
            if ev.get("ph") == "M" and ev.get("name") == "process_name":
                margs = dict(ev.get("args", {}))
                margs["name"] = "sim: " + str(margs.get("name", "?"))
                ev["args"] = margs
            else:
                args = dict(ev.get("args", {}))
                args["trace_id"] = trace_id
                ev["args"] = args
            events.append(ev)
        sim_other = sim_doc.get("otherData")
        if isinstance(sim_other, dict):
            other["sim"] = sim_other
    return {"traceEvents": events, "displayTimeUnit": "ns",
            "otherData": other}


def write_chrome_json(doc: Dict, path: str) -> None:
    """Write a stitched document to ``path`` (Perfetto-loadable)."""
    from .export import _fallback

    with open(path, "w", encoding="utf-8") as fh:
        json.dump(doc, fh, indent=None, default=_fallback)

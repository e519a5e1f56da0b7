"""Unified observability layer (the paper's §6 instrumentation story).

The paper credits the CXpa profiler and the hpm hardware counters for
every optimisation win it reports; this package is the analogous
first-class measurement subsystem for the simulated machine:

* :mod:`repro.sim.trace` — the structured, span-capable event bus
  (``Tracer``); every layer (machine, runtime, PVM, perfmodel) emits
  into it with thread/CPU/hypernode attribution;
* :mod:`repro.obs.export` — Chrome trace-event JSON (open in Perfetto
  or ``chrome://tracing``; one track per simulated CPU) and JSONL
  event streams;
* :mod:`repro.obs.metrics` — per-run ``metrics.json`` manifests:
  headline experiment data, per-phase span times, counter deltas,
  imbalance factors, instrumentation-overhead accounting;
* :mod:`repro.obs.timeline` — ASCII Gantt rendering of traces
  (``python -m repro timeline``);
* :mod:`repro.obs.memscope` — the memory-system profiler: per-access
  miss classification (local/GCB/SCI-remote with hop counts),
  directory/SCI transition counters, a false-sharing & ping-pong
  detector, ring/crossbar occupancy timelines, and page/hypernode
  hotspot heatmaps (``python -m repro memscope``; see
  ``docs/memscope.md``);
* :mod:`repro.obs.hostscope` — the host-time self-profiler: attributes
  *wall-clock* time to simulator subsystems (event heap, dispatch,
  memory/coherence, scheduling, PVM, application code) and reports
  simulated-cycles/s and events/s throughput (``python -m repro
  hostscope``; see ``docs/hostscope.md``);
* :mod:`repro.obs.scopes` — the profiler scope table: one entry per
  profiler (how it is built, installed, rendered, folded into a
  manifest and summarised from a trace), read by the CLI commands and
  flags, the job server's telemetry and the manifests;
* :mod:`repro.obs.tracectx` — end-to-end trace context: one trace ID
  minted in the SDK, carried over the NDJSON protocol, stamped onto
  exec-pool unit progress, and stitched with the simulated Chrome
  trace into a single client → server → worker → simulated-time file
  (see ``docs/service.md``);
* :mod:`repro.obs.ledger` — the longitudinal ledger (``python -m repro
  ledger``): append-only checksummed JSONL records of
  ``benchmarks/e2e`` runs (host-scaled end-to-end metrics, golden-digest
  checks, git provenance), with per-workload trend sparklines and a
  windowed median/MAD regression gate (see ``docs/ledger.md``).

Zero-cost contract: tracing never advances simulated time.  See
:mod:`repro.sim.trace` for the overhead-correction story mirroring the
paper's §4 methodology.
"""

from ..sim.trace import TraceEvent, Tracer, active_tracer, use_tracer
from .critscope import (
    CritScope,
    active_critscope,
    critscope_from_trace,
    scaled_config,
    use_critscope,
)
from .export import (
    chrome_trace,
    jsonl_lines,
    load_trace,
    load_trace_checked,
    write_chrome_trace,
    write_jsonl,
)
from .fidelity import FIDELITY_EXPERIMENTS, fidelity_residuals
from .hostscope import (
    HostScope,
    active_hostscope,
    hostscope_from_trace,
    use_hostscope,
)
from .ledger import (
    DEFAULT_LEDGER_PATH,
    Ledger,
    LedgerError,
    fold_document,
    record_checksum,
)
from .memscope import (
    MemScope,
    active_memscope,
    memscope_from_trace,
    placement_probe,
    use_memscope,
)
from .metrics import build_manifest, provenance_stamp, span_summary, \
    write_metrics
from .scopes import SCOPES, Scope
from .timeline import render_timeline, timeline_from_tracer
from .tracectx import (
    TraceContext,
    active_tracectx,
    mint_trace_id,
    stitch_chrome_trace,
    use_tracectx,
    write_chrome_json,
)

__all__ = [
    "Tracer", "TraceEvent", "active_tracer", "use_tracer",
    "chrome_trace", "write_chrome_trace", "jsonl_lines", "write_jsonl",
    "load_trace", "load_trace_checked",
    "CritScope", "active_critscope", "use_critscope", "scaled_config",
    "critscope_from_trace",
    "build_manifest", "provenance_stamp", "span_summary", "write_metrics",
    "render_timeline", "timeline_from_tracer",
    "MemScope", "active_memscope", "use_memscope", "placement_probe",
    "memscope_from_trace",
    "HostScope", "active_hostscope", "use_hostscope",
    "hostscope_from_trace", "SCOPES", "Scope",
    "FIDELITY_EXPERIMENTS", "fidelity_residuals",
    "Ledger", "LedgerError", "DEFAULT_LEDGER_PATH", "record_checksum",
    "fold_document",
    "TraceContext", "active_tracectx", "use_tracectx", "mint_trace_id",
    "stitch_chrome_trace", "write_chrome_json",
]

"""Per-run metrics manifests (``metrics.json``).

A manifest is the machine-readable record of one experiment run:
headline data (the numbers the paper's table/figure reports), per-phase
span statistics with attributed counter deltas, global protocol
counters, imbalance factors, and the instrumentation-overhead
accounting of §4 (how many timestamps were read, what they cost, and
the tracer's own simulated-time cost — zero by construction).

Manifests from two runs diff cleanly with any JSON tool, which is the
workflow the paper's authors used hpm for: "the Fig 7 dip at 9 CPUs is
X extra remote misses".
"""

from __future__ import annotations

import json
from typing import Dict, Optional

from ..core.config import MachineConfig
from ..sim.trace import Tracer
from .scopes import SCOPES

__all__ = ["SCHEMA_VERSION", "span_summary", "build_manifest",
           "provenance_stamp", "write_metrics"]

SCHEMA_VERSION = 1


def provenance_stamp() -> Dict:
    """Host-side provenance tying a manifest to a commit and a source tree.

    Wall-clock creation time (ISO 8601, UTC), the git HEAD of the tree
    containing the package (None when not in a git checkout), whether
    that checkout was dirty (uncommitted changes — a noisy dev-tree
    run, not a clean CI one), and the package code fingerprint — the
    same hash the result cache keys on — so observatory diffs can say
    *which code* produced *which numbers*.
    """
    from datetime import datetime, timezone

    from ..exec.fingerprint import code_fingerprint, git_dirty, git_sha

    return {
        "created_utc": datetime.now(timezone.utc).isoformat(
            timespec="seconds"),
        "git_sha": git_sha(),
        "git_dirty": git_dirty(),
        "code_fingerprint": code_fingerprint()[:16],
    }


def _jsonable(obj):
    """Recursively coerce ``obj`` into plain JSON-serializable types."""
    if isinstance(obj, dict):
        return {str(k): _jsonable(v) for k, v in obj.items()}
    if isinstance(obj, (list, tuple, set, frozenset)):
        return [_jsonable(v) for v in obj]
    if isinstance(obj, (str, int, float, bool)) or obj is None:
        return obj
    if hasattr(obj, "tolist"):  # numpy scalar or array
        return obj.tolist()
    return str(obj)


def span_summary(tracer: Tracer) -> Dict[str, Dict]:
    """Aggregate closed/complete spans by name.

    Per span name: occurrence count, total/mean/max/min duration, the
    cross-track imbalance factor (max track total / mean track total —
    the CXpa statistic), summed counter deltas, and summed ``*_ns``
    breakdown components (the perfmodel's pipe/stall/message split).
    """
    out: Dict[str, Dict] = {}
    tracks: Dict[str, Dict[tuple, float]] = {}
    for ev in tracer.spans():
        dur = ev.dur if ev.ph == "X" else ev.args.get("dur_ns", 0.0)
        s = out.setdefault(ev.name, {
            "count": 0, "total_ns": 0.0, "max_ns": 0.0,
            "min_ns": float("inf"), "counters": {}, "breakdown_ns": {},
        })
        s["count"] += 1
        s["total_ns"] += dur
        s["max_ns"] = max(s["max_ns"], dur)
        s["min_ns"] = min(s["min_ns"], dur)
        per_track = tracks.setdefault(ev.name, {})
        key = (ev.pid, ev.tid)
        per_track[key] = per_track.get(key, 0.0) + dur
        for k, v in ev.args.get("counters", {}).items():
            s["counters"][k] = s["counters"].get(k, 0) + v
        for k, v in ev.args.items():
            if k.endswith("_ns") and k != "dur_ns" \
                    and isinstance(v, (int, float)):
                s["breakdown_ns"][k] = s["breakdown_ns"].get(k, 0.0) + v
    for name, s in out.items():
        s["mean_ns"] = s["total_ns"] / s["count"]
        if s["min_ns"] == float("inf"):
            s["min_ns"] = 0.0
        totals = list(tracks[name].values())
        mean = sum(totals) / len(totals)
        s["tracks"] = len(totals)
        s["imbalance"] = (max(totals) / mean) if mean > 0 else 1.0
        if not s["counters"]:
            del s["counters"]
        if not s["breakdown_ns"]:
            del s["breakdown_ns"]
    return out


def build_manifest(result=None, *, tracer: Optional[Tracer] = None,
                   config: Optional[MachineConfig] = None,
                   execution: Optional[Dict] = None,
                   extra: Optional[Dict] = None, **scopes) -> Dict:
    """Assemble a ``metrics.json`` manifest.

    ``result`` is an :class:`~repro.experiments.base.ExperimentResult`
    (or None for ad-hoc runs);
    ``execution`` is an :class:`~repro.exec.ExecutionReport` dict (jobs,
    cache hits, units) recorded when the run went through the execution
    fabric.  One keyword per profiler of :data:`~repro.obs.scopes.SCOPES`
    (``memscope=``, ``critscope=``, ``hostscope=``) folds that profiler,
    or its ``to_dict()``, in as a block of the same name.  Every
    manifest is stamped with :func:`provenance_stamp`.
    """
    unknown = sorted(set(scopes) - set(SCOPES))
    if unknown:
        raise TypeError(f"build_manifest() got unexpected keyword "
                        f"argument(s) {', '.join(unknown)}; profiler "
                        f"blocks are {', '.join(SCOPES)}")
    manifest: Dict = {"schema_version": SCHEMA_VERSION,
                      "generator": "repro.obs",
                      "provenance": provenance_stamp()}
    if result is not None:
        manifest["experiment"] = {"id": result.experiment_id,
                                  "title": result.title}
        manifest["headline"] = _jsonable(result.data)
        if result.notes:
            manifest["notes"] = result.notes
    if config is not None:
        from ..core.canon import config_dict, stable_hash

        params = config_dict(config)
        manifest["machine"] = {
            "n_hypernodes": config.n_hypernodes,
            "n_cpus": config.n_cpus,
            "clock_ns": config.clock_ns,
            "dcache_bytes": config.dcache_bytes,
            # full canonical parameter set, hashed the same way the
            # result cache keys it (see docs/execution.md)
            "config_hash": stable_hash(params, length=16),
            "config": _jsonable(params),
        }
    if tracer is not None:
        manifest["counters"] = _jsonable(tracer.counters)
        manifest["phases"] = _jsonable(span_summary(tracer))
        timer_reads = tracer.count("timer.read")
        overhead_ns = (timer_reads * config.cycles(
            config.timer_overhead_cycles) if config is not None else None)
        manifest["instrumentation"] = {
            # §4 correction: explicit clock reads are the only simulated
            # intrusion; the tracer itself costs zero simulated time.
            "timer_reads": timer_reads,
            "timer_overhead_total_ns": overhead_ns,
            "tracer_simulated_cost_ns": 0.0,
            "events": len(tracer.events),
            "records": len(tracer.records),
        }
    if execution:
        manifest["execution"] = _jsonable(execution)
    for name in SCOPES:
        block = scopes.get(name)
        if block is not None:
            manifest[name] = _jsonable(
                block if isinstance(block, dict) else block.to_dict())
    if extra:
        manifest.update(_jsonable(extra))
    return manifest


def write_metrics(manifest: Dict, path: str) -> None:
    """Write a manifest to ``path`` as pretty-printed JSON."""
    with open(path, "w", encoding="utf-8") as fh:
        json.dump(manifest, fh, indent=2, sort_keys=False)
        fh.write("\n")

"""repro.exec — the parallel experiment execution fabric.

Every experiment sweep in the reproduction is embarrassingly parallel:
each point is a deterministic function of its parameters, the machine
configuration, and (optionally) a fault plan.  This package
exploits that three ways:

* :mod:`repro.exec.units` — a work-graph **planner**: every
  experiment decomposes into independent, hashable work units, one per
  ``(experiment_id, point-config)``;
* :mod:`repro.exec.pool` — a **supervised worker pool** (``--jobs N``)
  with deterministic result merging, per-unit timeouts, heartbeat-based
  hung-worker detection, bounded retries with backoff, poison-unit
  quarantine, and graceful degradation to serial
  (:mod:`repro.exec.resilience`);
* :mod:`repro.exec.cache` — a **content-addressed result cache** keyed
  by canonical unit config + machine parameters + a code fingerprint
  (:mod:`repro.exec.fingerprint`), with per-entry payload checksums
  verified on read, so re-runs are incremental and bit-rot is caught.

Plus the robustness layer: :mod:`repro.exec.chaos` injects
deterministic host faults (worker kills, delays, cache corruption,
return-path drops) to prove, in CI, that none of it changes results.

:func:`execute` ties them together: plan units, satisfy them from the
cache, fan the rest out to the pool — storing each unit in the cache
the moment it completes, so a killed or cancelled sweep keeps every
unit it finished and its rerun computes only the rest — then hand the
experiment's ``run(values, config, quick)`` the value of every planned
unit, from which it assembles its tables and series without simulating
anything.
"""

from __future__ import annotations

import time
from typing import Dict, Optional

from ..experiments.base import get_experiment
from .cache import (
    CACHE_SCHEMA,
    CacheRootError,
    ResultCache,
    default_cache_root,
)
from .chaos import (
    WORKER_KINDS,
    ChaosPlan,
    ChaosPlanError,
    chaos_from_dict,
    corrupt_cache_entry,
    load_chaos_plan,
)
from .events import (
    EVENT_KINDS,
    EVENT_SCHEMA,
    EventSchemaError,
    make_event,
    validate_event,
)
from .fingerprint import clear_fingerprint_cache, code_fingerprint, git_sha
from .pool import PoolStats, WorkerPool
from .progress import ProgressStream
from .resilience import (
    ResiliencePolicy,
    ResilienceStats,
    UnitExecutionError,
    UnitFailure,
)
from .units import WorkUnit, plan_units, run_unit, unit_experiments

__all__ = [
    "WorkUnit", "plan_units", "run_unit", "unit_experiments",
    "WorkerPool", "PoolStats", "ProgressStream",
    "ResultCache", "default_cache_root", "CACHE_SCHEMA", "CacheRootError",
    "ResiliencePolicy", "ResilienceStats", "UnitFailure",
    "UnitExecutionError",
    "ChaosPlan", "ChaosPlanError", "chaos_from_dict", "load_chaos_plan",
    "EVENT_SCHEMA", "EVENT_KINDS", "EventSchemaError", "make_event",
    "validate_event",
    "code_fingerprint", "git_sha", "clear_fingerprint_cache",
    "ExecutionReport", "execute",
]


class ExecutionReport:
    """What the fabric did for one experiment run."""

    def __init__(self, experiment_id: str, jobs: int):
        self.experiment_id = experiment_id
        self.jobs = jobs
        self.units_planned = 0
        self.cache_hits = 0
        self.cache_misses = 0
        self.cache_stores = 0
        self.cache_corrupt = 0       #: checksum failures caught this run
        self.cache_quarantined = 0   #: corrupt entries preserved this run
        self.computed = 0
        self.retried_in_process = 0
        self.wall_seconds = 0.0
        self.cache_root: Optional[str] = None
        #: host-time split of the fabric's own phases (seconds):
        #: plan / cache_lookup / cache_store / spawn / pool / assemble
        self.host_timing: Dict[str, float] = {}
        #: per-unit host timings from :class:`~repro.exec.pool.PoolStats`
        self.unit_timings: list = []
        #: retry/timeout/quarantine/chaos counters (None on a clean run)
        self.resilience: Optional[ResilienceStats] = None

    @property
    def cache_hit_rate(self) -> float:
        lookups = self.cache_hits + self.cache_misses
        return self.cache_hits / lookups if lookups else 0.0

    def to_dict(self) -> Dict:
        out = {
            "experiment_id": self.experiment_id,
            "jobs": self.jobs,
            "units_planned": self.units_planned,
            "cache_hits": self.cache_hits,
            "cache_misses": self.cache_misses,
            "cache_stores": self.cache_stores,
            "cache_hit_rate": self.cache_hit_rate,
            "computed": self.computed,
            "retried_in_process": self.retried_in_process,
            "wall_seconds": self.wall_seconds,
            "cache_root": self.cache_root,
            "host_timing": self.host_timing,
            "unit_timings": self.unit_timings,
        }
        # robustness blocks only when something happened: a clean run's
        # report (and everything derived from it) keeps its old shape
        if self.cache_corrupt or self.cache_quarantined:
            out["cache_corrupt"] = self.cache_corrupt
            out["cache_quarantined"] = self.cache_quarantined
        if self.resilience is not None and self.resilience.any():
            out["resilience"] = self.resilience.to_dict()
        return out

    def render(self) -> str:
        """One human line for ``--cache-stats``."""
        parts = [f"{self.units_planned} units",
                 f"{self.computed} computed ({self.jobs} jobs)"]
        if self.cache_hits or self.cache_misses or self.cache_stores:
            cache = (f"cache {self.cache_hits} hits / "
                     f"{self.cache_misses} misses "
                     f"({self.cache_hit_rate:.0%} hit rate)")
            if self.cache_stores:
                cache += f", {self.cache_stores} stored"
            parts.append(cache)
        if self.cache_corrupt:
            parts.append(f"{self.cache_corrupt} corrupt cache "
                         f"entr{'y' if self.cache_corrupt == 1 else 'ies'} "
                         "quarantined + re-executed")
        if self.retried_in_process:
            parts.append(f"{self.retried_in_process} retried in-process")
        if self.resilience is not None and self.resilience.any():
            r = self.resilience
            blips = []
            if r.retries:
                blips.append(f"{r.retries} retries")
            if r.hung_workers_replaced:
                blips.append(f"{r.hung_workers_replaced} hung workers "
                             "replaced")
            elif r.workers_replaced:
                blips.append(f"{r.workers_replaced} workers replaced")
            if r.quarantined:
                blips.append(f"{len(r.quarantined)} units quarantined")
            if r.chaos_injected:
                total = sum(r.chaos_injected.values())
                blips.append(f"{total} chaos faults injected")
            if blips:
                parts.append("survived " + ", ".join(blips))
        parts.append(f"{self.wall_seconds:.2f}s wall")
        t = self.host_timing
        if t.get("pool_s"):
            parts.append(f"pool {t['pool_s']:.2f}s"
                         + (f" (spawn {t['spawn_s']:.2f}s)"
                            if t.get("spawn_s") else ""))
        return f"[exec {self.experiment_id}] " + ", ".join(parts)


def execute(experiment_id: str, config, *, jobs: int = 1,
            quick: bool = False, cache: Optional[ResultCache] = None,
            fault_plan=None, seed: Optional[int] = None,
            observed: bool = False,
            progress: Optional[ProgressStream] = None,
            policy: Optional[ResiliencePolicy] = None,
            chaos: Optional[ChaosPlan] = None,
            pool: Optional[WorkerPool] = None):
    """Run one experiment through the fabric.

    Returns ``(ExperimentResult, ExecutionReport)``.  ``observed=True``
    (the CLI's ``--trace``/``--metrics``/``--profile`` modes) forces
    every unit to execute in this process under the ambient tracer and
    skips cache *reads* — a trace of a run that simulated nothing would
    be empty — while still warming the cache with what it computes.
    ``progress`` streams JSONL telemetry as units complete.  ``pool``
    computes the units the cache did not hold, in place of a
    ``WorkerPool(jobs, policy)`` of this call's own; an observed run
    ignores it.

    ``policy`` sets timeouts/retries (:class:`ResiliencePolicy`);
    ``chaos`` injects deterministic host faults (:class:`ChaosPlan`).

    Each computed unit goes to the cache as it completes and before its
    ``unit`` progress record.  So whatever stops the sweep — a kill, a
    cancel raised from ``progress``, poison units
    (:class:`UnitExecutionError`, raised once the rest drained) — every
    unit already reported is stored, and a rerun on the same cache
    computes only the rest.
    """
    from ..obs.tracectx import active_tracectx

    # Ambient trace context (one check per run): when a TraceContext is
    # installed (use_tracectx — the server does this per job), progress
    # records carry its trace/job IDs and per-unit pool spans land in
    # ctx.spans.  Host-side bookkeeping only: simulated results and
    # clocks are bit-identical with or without it.
    ctx = active_tracectx()
    stamp = ctx.stamp if ctx is not None else (lambda record: record)

    t0 = time.perf_counter()
    report = ExecutionReport(experiment_id, jobs)
    timing: Dict[str, float] = {}
    report.host_timing = timing
    if cache is not None:
        report.cache_root = cache.root
    resilience = ResilienceStats()
    report.resilience = resilience

    t_phase = time.perf_counter()
    units = plan_units(experiment_id, config, quick=quick)
    timing["plan_s"] = round(time.perf_counter() - t_phase, 6)
    report.units_planned = len(units)

    chaos_resolved = chaos.resolve(units) if chaos is not None else {}
    worker_spec = {
        key: [f for f in faults if f["kind"] in WORKER_KINDS]
        for key, faults in chaos_resolved.items()}
    worker_spec = {k: v for k, v in worker_spec.items() if v}
    if cache is not None and chaos_resolved:
        # corrupt_cache faults tamper with on-disk entries *before* the
        # lookup pass, so checksum verification catches them live
        for unit in units:
            faults = chaos_resolved.get(unit.key, ())
            if any(f["kind"] == "corrupt_cache" for f in faults):
                path = cache._path(
                    cache.digest(unit, config, fault_plan, seed))
                if corrupt_cache_entry(path):
                    resilience.count_chaos("corrupt_cache")

    t_phase = time.perf_counter()
    values: Dict[str, object] = {}
    remaining = []
    digests: Dict[str, str] = {}
    corrupt_before = cache.corrupt if cache is not None else 0
    quarantined_before = cache.quarantined if cache is not None else 0
    for unit in units:
        if cache is not None:
            digest = cache.digest(unit, config, fault_plan, seed)
            digests[unit.key] = digest
            if not observed:
                try:
                    values[unit.key] = cache.get(digest)
                    report.cache_hits += 1
                    continue
                except KeyError:
                    report.cache_misses += 1
        remaining.append(unit)
    if cache is not None:
        report.cache_corrupt = cache.corrupt - corrupt_before
        report.cache_quarantined = cache.quarantined - quarantined_before
    timing["cache_lookup_s"] = round(time.perf_counter() - t_phase, 6)

    effective_jobs = 1 if observed else jobs
    if progress is not None:
        progress.emit(stamp(make_event(
            "start", experiment=experiment_id,
            units=len(units), to_compute=len(remaining),
            cache_hits=report.cache_hits,
            jobs=min(effective_jobs, max(len(remaining), 1)),
        )))

    timing["cache_store_s"] = 0.0
    if remaining:
        if pool is None or observed:
            pool = WorkerPool(effective_jobs, policy)
        stats = PoolStats(pool.jobs)
        stats.resilience = resilience

        def complete(unit, value):
            t_put = time.perf_counter()
            cache.put(digests[unit.key], value, unit)
            timing["cache_store_s"] += time.perf_counter() - t_put
            report.cache_stores += 1

        done = 0
        total = len(remaining)
        pool_t0 = time.monotonic()

        def heartbeat(unit, unit_timing):
            nonlocal done
            done += 1
            if ctx is not None:
                # pool-unit host span: ends now, started run_s ago
                t1 = time.time()
                ctx.add_span(
                    f"unit {unit.key}", t1 - unit_timing.get("run_s", 0.0),
                    t1, cat="exec.unit", origin="pool",
                    where=unit_timing.get("where", "worker"))
            if progress is None:
                return
            elapsed = time.monotonic() - pool_t0
            rate = done / elapsed if elapsed > 0 else 0.0
            fields = dict(unit_timing)
            fields.update({
                "key": unit.key, "done": done, "total": total,
                "eta_s": round((total - done) / rate, 3)
                if rate else None,
                "cache_hit_rate": round(report.cache_hit_rate, 4),
                "jobs": pool.jobs,
                "workers_busy": min(pool.jobs, total - done)
                if unit_timing.get("where") == "worker" else
                (1 if done < total else 0),
            })
            progress.emit(stamp(make_event("unit", **fields)))

        t_phase = time.perf_counter()
        try:
            computed = pool.map_units(
                remaining, config, fault_plan=fault_plan,
                stats=stats,
                on_complete=complete if cache is not None else None,
                on_progress=heartbeat
                if (progress is not None or ctx is not None) else None,
                on_event=progress.emit if progress is not None else None,
                chaos_spec=worker_spec)
        finally:
            timing["pool_s"] = round(time.perf_counter() - t_phase
                                     - timing["cache_store_s"], 6)
            timing["spawn_s"] = round(stats.spawn_s, 6)
            report.computed = stats.executed
            report.retried_in_process = stats.retried_in_process
            report.unit_timings = stats.unit_timings
        values.update(computed)
    timing["cache_store_s"] = round(timing["cache_store_s"], 6)

    t_phase = time.perf_counter()
    result = get_experiment(experiment_id)(values, config, quick=quick)
    timing["assemble_s"] = round(time.perf_counter() - t_phase, 6)
    report.wall_seconds = time.perf_counter() - t0
    if progress is not None:
        progress.emit(stamp(make_event(
            "done", experiment=experiment_id,
            computed=report.computed, cache_hits=report.cache_hits,
            cache_hit_rate=round(report.cache_hit_rate, 4),
            wall_s=round(report.wall_seconds, 3),
        )))
    return result, report

"""``python -m repro bench`` — the wall-clock execution trajectory.

Times every unit-aware experiment three ways — serial (cold, no
cache), parallel (``--jobs N``, cold cache), and warm-cache — and
writes the measurements to ``BENCH_exec.json``.  CI runs this on every
push and uploads the file as an artifact, giving the repository a
measured performance trajectory over time (the machine-characterisation
discipline the paper applies to the SPP-1000, turned on ourselves).

Schema (``BENCH_SCHEMA`` = 2)::

    {
      "schema_version": 2,
      "generator": "repro.exec.bench",
      "jobs": 2, "quick": true,
      "host": {"cpu_count": 4, "physical_cpus": 2, "cpu_model": "…",
               "python": "3.12.1", "platform": "linux",
               "loadavg_1m": 0.42, "calibration_miters_s": 11.3},
      "code_fingerprint": "3f62…",
      "experiments": {
        "fig2": {"units": 18,
                 "serial_s": 0.51, "parallel_s": 0.31, "cached_s": 0.02,
                 "speedup": 1.65, "cached_speedup": 10.2,
                 "cached_speedup_resolution_limited": true,
                 "units_per_s": 35.3, "sim_mcycles": 0.59,
                 "sim_mcycles_per_s": 1.15, "events": 26742,
                 "events_per_s": 52435,
                 "parallel_breakdown": {"spawn_s": 0.02, ...},
                 "cache_hit_rate": 1.0, "identical": true},
        ...
      },
      "totals": {"serial_s": ..., "parallel_s": ..., "cached_s": ...,
                 "speedup": ..., "cached_speedup": ...,
                 "cached_speedup_resolution_limited": false}
    }

``identical`` asserts the bit-identity contract: the parallel and
warm-cache results canonically equal the serial ones.  Throughput
columns (``units_per_s``, ``sim_mcycles_per_s``, ``events_per_s``)
come from a light :class:`~repro.obs.hostscope.HostScope` (counters
only, no per-region timing) installed around the *serial* pass, so the
simulated-cycle and event counts are measured, not estimated.

Schema history: v2 added the throughput columns, the enriched host
block with the calibration score, ``parallel_breakdown``, and the
timer-resolution floor on ``cached_speedup``.  A row additionally
carries a ``resilience`` block (retries, quarantined units, corrupt
cache entries, hung-worker replacements, chaos injections) **only**
when the run actually survived something — clean runs keep the exact
v2 shape, no schema bump.  Following the same additive convention the
document now also carries ``git_dirty`` (uncommitted changes next to
``git_sha``) and a top-level ``fidelity`` block — per-figure residuals
of the reproduced Fig 2-8 curves against golden expectations (see
:mod:`repro.obs.fidelity`), computed from the serial pass's data after
all timed passes so they can never perturb a measurement.
"""

from __future__ import annotations

import json
import os
import sys
import tempfile
import time
from datetime import datetime, timezone
from typing import Dict, List, Optional

from ..core.canon import canonical_json
from ..core.tables import Table
from ..obs.fidelity import fidelity_residuals
from ..obs.hostscope import HostScope, use_hostscope
from . import ResultCache, execute, unit_experiments
from .events import make_event
from .fingerprint import code_fingerprint, git_dirty, git_sha

__all__ = ["BENCH_SCHEMA", "host_info", "run_bench", "write_bench",
           "render_bench", "markdown_compare", "stale_artifact_warning"]

BENCH_SCHEMA = 2

#: warm-cache wall times below this floor are timer/startup noise —
#: dividing by them manufactures arbitrarily large "speedups", so
#: cached_speedup clamps its denominator here and flags the row.
_RESOLUTION_FLOOR_S = 0.05


def _timed(fn):
    t0 = time.perf_counter()
    result = fn()
    return result, time.perf_counter() - t0


def _calibrate(repeats: int = 3, n: int = 200_000) -> float:
    """Host-speed score: millions of iterations/s of a fixed pure-Python
    loop, best of ``repeats`` (higher = faster host).  The regression
    rule (:func:`repro.obs.ledger.judge`) normalizes timings by it."""
    best = float("inf")
    for _ in range(repeats):
        acc = 0.0
        t0 = time.perf_counter()
        for i in range(n):
            acc += 1.000001 * i - (i >> 1)
        best = min(best, time.perf_counter() - t0)
    return round(n / best / 1e6, 3) if best > 0 else 0.0


def _cpu_details() -> Dict[str, object]:
    """CPU model and physical-core count from /proc/cpuinfo (Linux);
    empty values elsewhere."""
    model = None
    physical = set()
    phys_id = core_id = None
    try:
        with open("/proc/cpuinfo", encoding="utf-8") as fh:
            for line in fh:
                key, _, value = line.partition(":")
                key, value = key.strip(), value.strip()
                if key == "model name" and model is None:
                    model = value
                elif key == "physical id":
                    phys_id = value
                elif key == "core id":
                    core_id = value
                elif not key:  # blank line = end of one processor block
                    if phys_id is not None and core_id is not None:
                        physical.add((phys_id, core_id))
                    phys_id = core_id = None
        if phys_id is not None and core_id is not None:
            physical.add((phys_id, core_id))
    except OSError:
        pass
    return {"cpu_model": model, "physical_cpus": len(physical) or None}


def host_info() -> Dict[str, object]:
    """The enriched ``host`` block: who ran this bench, and how fast a
    machine it was."""
    info: Dict[str, object] = {"cpu_count": os.cpu_count()}
    info.update(_cpu_details())
    info["python"] = sys.version.split()[0]
    info["platform"] = sys.platform
    try:
        info["loadavg_1m"] = round(os.getloadavg()[0], 2)
    except (AttributeError, OSError):  # pragma: no cover - non-POSIX
        info["loadavg_1m"] = None
    info["calibration_miters_s"] = _calibrate()
    return info


def _resilience_row(*reports) -> Optional[Dict[str, object]]:
    """Merged resilience counters across passes, or ``None`` when every
    pass was clean — a clean run's BENCH row keeps its old shape (the
    ``resilience`` key appears without any schema bump only when there
    is something to report)."""
    row = {"retries": 0, "timeouts": 0, "hung_workers_replaced": 0,
           "workers_replaced": 0, "serial_fallbacks": 0,
           "quarantined_units": [], "cache_corrupt": 0,
           "chaos_injected": {}}
    dirty = False
    for rep in reports:
        if rep.cache_corrupt:
            row["cache_corrupt"] += rep.cache_corrupt
            dirty = True
        resil = rep.resilience
        if resil is None or not resil.any():
            continue
        dirty = True
        for key in ("retries", "timeouts", "hung_workers_replaced",
                    "workers_replaced", "serial_fallbacks"):
            row[key] += getattr(resil, key)
        row["quarantined_units"] += [f.key for f in resil.quarantined]
        for kind, count in resil.chaos_injected.items():
            row["chaos_injected"][kind] = \
                row["chaos_injected"].get(kind, 0) + count
    if not dirty:
        return None
    if not row["chaos_injected"]:
        del row["chaos_injected"]
    return row


def run_bench(config, *, jobs: int = 2, quick: bool = False,
              experiment_ids: Optional[List[str]] = None,
              progress=None, chaos=None) -> Dict:
    """Measure serial/parallel/cached wall time per experiment.

    Requested ``experiment_ids`` that are unknown or have no work-unit
    planner are warned about on stderr and skipped (a renamed experiment
    in a ``--bench-experiments`` list or an old baseline must not abort
    the whole benchmark); :class:`ValueError` is raised only when
    nothing benchmarkable remains.

    ``progress`` (a :class:`~repro.exec.progress.ProgressStream`)
    streams live telemetry: a ``bench_pass`` marker before each
    serial/parallel/cached pass, then that pass's ``start``/``unit``/
    ``done`` records with per-unit host timings — the raw data behind
    the serial-vs-parallel gap.

    ``chaos`` (a :class:`~repro.exec.chaos.ChaosPlan`) is injected into
    the *parallel* pass only — the serial pass stays the clean
    baseline, so the row's ``identical`` flag directly asserts the
    chaos bit-identity contract; survived faults land in the row's
    ``resilience`` block.
    """
    from .. import experiments  # noqa: F401 -- populate the unit registry

    benchable = list(unit_experiments())
    if experiment_ids:
        targets = []
        for exp_id in experiment_ids:
            if exp_id in benchable:
                targets.append(exp_id)
            else:
                print(f"bench: skipping {exp_id!r} (not a unit-aware "
                      f"experiment; benchmarkable: "
                      f"{', '.join(benchable)})", file=sys.stderr)
        if not targets:
            raise ValueError(
                "no benchmarkable experiments among "
                f"{', '.join(repr(e) for e in experiment_ids)}; "
                f"unit-aware experiments: {', '.join(benchable)}")
    else:
        targets = benchable
    experiments: Dict[str, Dict] = {}
    fidelity: Dict[str, Dict] = {}
    totals = {"serial_s": 0.0, "parallel_s": 0.0, "cached_s": 0.0}
    for exp_id in targets:
        with tempfile.TemporaryDirectory(prefix="repro-bench-") as tmp:
            cache = ResultCache(tmp)
            # Serial pass under a counters-only hostscope: measured
            # simulated-cycle/event totals for the throughput columns,
            # without per-region timer reads perturbing the baseline.
            scope = HostScope(detail=False)

            def _mark(pass_name, pass_jobs):
                if progress is not None:
                    progress.emit(make_event(
                        "bench_pass", experiment=exp_id,
                        **{"pass": pass_name, "jobs": pass_jobs}))

            def _serial():
                with use_hostscope(scope):
                    return execute(exp_id, config, jobs=1, quick=quick,
                                   progress=progress)

            _mark("serial", 1)
            (serial, _), serial_s = _timed(_serial)
            _mark("parallel", jobs)
            (parallel, prep), parallel_s = _timed(
                lambda: execute(exp_id, config, jobs=jobs, quick=quick,
                                cache=cache, progress=progress,
                                chaos=chaos))
            _mark("cached", jobs)
            (cached, crep), cached_s = _timed(
                lambda: execute(exp_id, config, jobs=jobs, quick=quick,
                                cache=cache, progress=progress))
            identical = (
                canonical_json(serial.data) == canonical_json(parallel.data)
                == canonical_json(cached.data))
            # Fidelity residuals read the already-produced serial data
            # *after* all timed passes — they can neither perturb the
            # simulated results nor the timings they ride along with.
            residuals = fidelity_residuals(exp_id, serial.data)
            if residuals is not None:
                fidelity[exp_id] = residuals
            sim_mcycles = scope.sim_cycles / 1e6
            cached_floor = max(cached_s, _RESOLUTION_FLOOR_S)
            breakdown = dict(prep.host_timing)
            if prep.unit_timings:
                for part in ("run_s", "queue_s", "return_s"):
                    breakdown["unit_" + part] = round(
                        sum(t[part] for t in prep.unit_timings), 4)
            experiments[exp_id] = {
                "units": prep.units_planned,
                "serial_s": round(serial_s, 4),
                "parallel_s": round(parallel_s, 4),
                "cached_s": round(cached_s, 4),
                "speedup": round(serial_s / parallel_s, 3),
                "cached_speedup": round(serial_s / cached_floor, 3),
                "cached_speedup_resolution_limited":
                    cached_s < _RESOLUTION_FLOOR_S,
                "units_per_s": round(prep.units_planned
                                     / max(serial_s, 1e-9), 3),
                "sim_mcycles": round(sim_mcycles, 4),
                "sim_mcycles_per_s": round(sim_mcycles
                                           / max(serial_s, 1e-9), 4),
                "events": scope.events,
                "events_per_s": round(scope.events / max(serial_s, 1e-9)),
                "parallel_breakdown": breakdown,
                "cache_hit_rate": round(crep.cache_hit_rate, 4),
                "units_resimulated_warm": crep.computed,
                "identical": identical,
            }
            resilience = _resilience_row(prep, crep)
            if resilience is not None:
                experiments[exp_id]["resilience"] = resilience
            totals["serial_s"] += serial_s
            totals["parallel_s"] += parallel_s
            totals["cached_s"] += cached_s
    total_cached_floor = max(totals["cached_s"], _RESOLUTION_FLOOR_S)
    doc = {
        "schema_version": BENCH_SCHEMA,
        "generator": "repro.exec.bench",
        "jobs": jobs,
        "quick": quick,
        "host": host_info(),
        "code_fingerprint": code_fingerprint()[:16],
        "git_sha": git_sha(),
        "git_dirty": git_dirty(),
        "created_utc": datetime.now(timezone.utc).isoformat(
            timespec="seconds"),
        "experiments": experiments,
        "fidelity": fidelity,
        "totals": {
            "serial_s": round(totals["serial_s"], 4),
            "parallel_s": round(totals["parallel_s"], 4),
            "cached_s": round(totals["cached_s"], 4),
            "speedup": round(totals["serial_s"]
                             / max(totals["parallel_s"], 1e-9), 3),
            "cached_speedup": round(totals["serial_s"]
                                    / total_cached_floor, 3),
            "cached_speedup_resolution_limited":
                totals["cached_s"] < _RESOLUTION_FLOOR_S,
        },
    }
    return doc


def stale_artifact_warning(baseline: Dict,
                           path: str) -> Optional[str]:
    """One actionable line when a committed bench artifact no longer
    matches the current tree, or ``None`` when it is fresh.

    Compares the artifact's ``code_fingerprint`` (the same hash the
    result cache keys on) against the live tree's — a stale baseline
    makes every ``--compare`` verdict about two different programs.
    """
    recorded = baseline.get("code_fingerprint")
    if not recorded:
        return None
    current = code_fingerprint()[:16]
    if recorded == current[:len(recorded)]:
        return None
    sha = baseline.get("git_sha") or "unknown"
    return (f"bench: baseline {path} is stale (its code_fingerprint "
            f"{recorded} / git {str(sha)[:12]} no longer matches the "
            f"current tree {current}); regenerate with 'python -m repro "
            f"bench --quick --jobs 2 --bench-out {path}'")


def write_bench(doc: Dict, path: str) -> None:
    with open(path, "w", encoding="utf-8") as fh:
        json.dump(doc, fh, indent=2, sort_keys=False)
        fh.write("\n")


def render_bench(doc: Dict) -> str:
    table = Table(
        f"Execution trajectory ({doc['jobs']} jobs, "
        f"{doc['host']['cpu_count']} CPUs)",
        ["experiment", "units", "serial s", "parallel s", "cached s",
         "speedup", "units/s", "Mcyc/s", "hit rate", "identical"])
    for exp_id, row in doc["experiments"].items():
        table.add_row(exp_id, row["units"], f"{row['serial_s']:.3f}",
                      f"{row['parallel_s']:.3f}", f"{row['cached_s']:.3f}",
                      f"{row['speedup']:.2f}x",
                      f"{row.get('units_per_s', 0):.1f}",
                      f"{row.get('sim_mcycles_per_s', 0):.2f}",
                      f"{row['cache_hit_rate']:.0%}",
                      "yes" if row["identical"] else "NO")
    totals = doc["totals"]
    table.add_row("TOTAL", "", f"{totals['serial_s']:.3f}",
                  f"{totals['parallel_s']:.3f}", f"{totals['cached_s']:.3f}",
                  f"{totals['speedup']:.2f}x", "", "", "", "")
    parts = [table.render()]
    limited = [e for e, row in doc["experiments"].items()
               if row.get("cached_speedup_resolution_limited")]
    if limited:
        parts.append(
            f"note: warm-cache wall under {_RESOLUTION_FLOOR_S}s for "
            f"{', '.join(limited)}; cached speedups clamped to the "
            "timer-resolution floor")
    return "\n".join(parts)


# -- the regression report ------------------------------------------------

def markdown_compare(report: Dict, doc: Dict) -> str:
    """GitHub-flavoured markdown of a ``bench --compare`` verdict:
    ``report`` from :func:`repro.obs.ledger.judge`, ``doc`` the fresh
    bench document it judged."""
    lines = ["# Bench regression report", ""]
    lines.append("**PASS** — no regressions, fidelity within tolerance"
                 if report["pass"] else
                 "**FAIL** — " + "; ".join(report["regressions"]
                                          + report["fidelity_breaches"]))
    lines.append("")
    lines.append(f"- threshold: {report['threshold']:.0%} "
                 f"(min abs delta {report['min_abs_s']}s)")
    lines.append("- host-speed normalization: "
                 + ("calibration scores" if report["normalized"] else
                    "none (a document lacks a calibration score)"))
    for side in ("baseline", "current"):
        sha = report.get(f"{side}_git_sha")
        fp = report.get(f"{side}_fingerprint")
        lines.append(f"- {side}: git `{(sha or 'unknown')[:12]}`, "
                     f"fingerprint `{fp or 'unknown'}`")
    lines.append("")
    lines.append("| experiment | baseline s | current s | ratio | "
                 "normalized | status |")
    lines.append("|---|---:|---:|---:|---:|---|")
    for exp_id, row in report["experiments"].items():
        status = row["status"]
        if status == "regression":
            status = "**REGRESSION**"
        lines.append(
            f"| {exp_id} | {row['baseline_s']:.3f} | "
            f"{row['current_s']:.3f} | {row['ratio']:.2f}x | "
            f"{row['normalized_ratio']:.2f}x | {status} |")
    if report["resilience"]:
        lines += ["", "## Fault behaviour", "",
                  "Resilience counters from runs that survived faults "
                  "(baseline → current); informational only — the "
                  "verdict above is timing-driven.", "",
                  "| experiment | retries | timeouts | workers replaced | "
                  "quarantined | corrupt cache | chaos injected |",
                  "|---|---:|---:|---:|---:|---:|---:|"]
        for exp_id, sides in report["resilience"].items():
            def _cell(*keys):
                return " → ".join(
                    str(sum(sides[side].get(key, 0) for key in keys))
                    for side in ("baseline", "current"))

            lines.append(
                f"| {exp_id} | {_cell('retries')} | {_cell('timeouts')} | "
                f"{_cell('hung_workers_replaced', 'workers_replaced')} | "
                f"{_cell('quarantined')} | {_cell('cache_corrupt')} | "
                f"{_cell('chaos_injected')} |")
    if report["new"]:
        lines += ["", "New experiments (no baseline entry): "
                  + ", ".join(f"`{e}`" for e in report["new"])]
    if report["missing"]:
        lines += ["", "Missing vs baseline: "
                  + ", ".join(f"`{e}`" for e in report["missing"])]
    limited = [e for e, row in doc["experiments"].items()
               if row.get("cached_speedup_resolution_limited")]
    if limited:
        lines += ["", "Warm-cache wall time was below the "
                  f"{_RESOLUTION_FLOOR_S}s timer-resolution floor for "
                  + ", ".join(f"`{e}`" for e in limited)
                  + "; their cached speedups are clamped lower bounds, "
                    "not measurements."]
    lines.append("")
    return "\n".join(lines)

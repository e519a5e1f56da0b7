"""Longitudinal performance-and-fidelity ledger (``repro ledger``).

``bench --compare`` answers "is this run slower than *one* committed
baseline?"; the ledger answers the paper's actual question — what is
the measured *trajectory*?  Every ``bench --ledger`` run (and any
``--metrics`` run or drained server, via ``repro ledger record``)
appends one checksummed JSONL record to ``benchmarks/LEDGER.jsonl``
carrying host calibration, per-experiment timings and throughput,
cache/resilience counters, git provenance (``git_sha`` +
``git_dirty`` + ``code_fingerprint``), and the Fig 2-8 fidelity
residuals from :mod:`repro.obs.fidelity`.

The file is written and read by :mod:`repro.core.jsonl`, the same
module as the sweep journal: append-only, one self-checksummed JSON
object per line, fsync'd per append, a torn tail healed by the next
append.  Readers skip torn or corrupt lines (a crash mid-append, a
failed checksum, a foreign ``ledger_schema``) and report them as
``skipped`` instead of crashing — history survives anything short of
deleting the file.

CLI verbs (``python -m repro ledger <verb>``):

* ``record`` — fold a ``BENCH_exec.json``, ``metrics.json`` manifest,
  or server-stats JSON into one ledger record (shape auto-detected);
* ``show`` — one record in full;
* ``trend`` — per-experiment ASCII sparklines of any timing /
  throughput / fidelity column, calibration-normalized when every
  record carries a host score;
* ``diff`` — record ``--b`` judged against record ``--a``;
* ``gate`` — windowed regression detection: the newest record judged
  against its predecessors in the window, exit 1 on sustained
  regression or a fidelity anchor out of tolerance.

One regression rule, :func:`judge`, gives every verdict — ``diff``,
``gate`` and ``bench --compare`` (which judges a fresh bench run
against the record of its baseline document).  Its noise band is
``max(threshold * median, 3 * 1.4826 * MAD)`` over the history — a
noisy history widens its own band, a flat one tightens it, and a single
history record gives ``threshold * baseline`` — and the ``min_abs_s``
raw-seconds guard means timer jitter on sub-hundredth rows can never
fail CI.
"""

from __future__ import annotations

import argparse
import json
import os
import sys
from datetime import datetime, timezone
from typing import Dict, List, Optional, Tuple

from ..core import jsonl
from ..core.jsonl import checksum as record_checksum
from ..core.tables import Table
from .fidelity import fidelity_residuals

__all__ = ["LEDGER_SCHEMA", "DEFAULT_LEDGER_PATH", "Ledger",
           "LedgerError", "record_checksum", "record_from_bench",
           "record_from_manifest", "record_from_server_stats",
           "fold_document", "trend", "render_trend", "judge",
           "render_verdict", "gate", "ledger_main"]

LEDGER_SCHEMA = 1

DEFAULT_LEDGER_PATH = os.path.join("benchmarks", "LEDGER.jsonl")

_SPARK = "▁▂▃▄▅▆▇█"

#: per-experiment columns a bench record carries (and trend can plot)
_TIMING_METRICS = ("serial_s", "parallel_s", "cached_s")
_THROUGHPUT_METRICS = ("units_per_s", "sim_mcycles_per_s", "events_per_s")
TREND_METRICS = _TIMING_METRICS + _THROUGHPUT_METRICS + ("fidelity",)


class LedgerError(ValueError):
    """A document or ledger the CLI cannot act on (actionable message)."""


class Ledger:
    """Append-only checksummed JSONL history at ``path``."""

    def __init__(self, path: str = DEFAULT_LEDGER_PATH):
        self.path = path

    def append(self, record: Dict) -> Dict:
        """Stamp schema + checksum and append one line (fsync'd)."""
        return jsonl.append(self.path,
                            {**record, "ledger_schema": LEDGER_SCHEMA})

    def read(self) -> Tuple[List[Dict], int]:
        """All intact records plus the count of skipped lines.

        Torn tails (a crash mid-append), corrupt JSON, failed
        checksums, and foreign-schema lines are all *skipped*, never
        raised.
        """
        objects, skipped = jsonl.read(self.path)
        records = [rec for rec in objects
                   if rec.get("ledger_schema") == LEDGER_SCHEMA]
        return records, skipped + len(objects) - len(records)


# -- record builders -------------------------------------------------------

def _provenance() -> Dict:
    from ..exec.fingerprint import code_fingerprint, git_dirty, git_sha

    return {"git_sha": git_sha(), "git_dirty": git_dirty(),
            "code_fingerprint": code_fingerprint()[:16]}


def _flat_resilience(resil: Dict) -> Dict[str, int]:
    """One bench row's resilience block as comparable integer counts."""
    out = {}
    for key, value in resil.items():
        if key == "quarantined_units":
            out["quarantined"] = len(value or ())
        elif key == "chaos_injected":
            out[key] = sum((value or {}).values())
        elif isinstance(value, (int, float)):
            out[key] = int(value)
    return {k: v for k, v in out.items() if v}


def record_from_bench(doc: Dict, *, source: str = "bench") -> Dict:
    """Fold one ``BENCH_exec.json`` document into a ledger record."""
    host = doc.get("host") or {}
    experiments: Dict[str, Dict] = {}
    for exp_id, row in (doc.get("experiments") or {}).items():
        entry = {key: row.get(key)
                 for key in ("units",) + _TIMING_METRICS
                 + ("speedup", "cached_speedup") + _THROUGHPUT_METRICS
                 + ("cache_hit_rate", "identical")}
        resil = _flat_resilience(row.get("resilience") or {})
        if resil:
            entry["resilience"] = resil
        experiments[exp_id] = entry
    record = {
        "kind": "bench",
        "source": source,
        "created_utc": doc.get("created_utc"),
        "git_sha": doc.get("git_sha"),
        "git_dirty": doc.get("git_dirty"),
        "code_fingerprint": doc.get("code_fingerprint"),
        "calibration_miters_s": host.get("calibration_miters_s"),
        "host": {key: host.get(key)
                 for key in ("cpu_count", "cpu_model", "python",
                             "platform", "loadavg_1m")},
        "jobs": doc.get("jobs"),
        "quick": doc.get("quick"),
        "experiments": experiments,
        "totals": doc.get("totals"),
    }
    if doc.get("fidelity"):
        record["fidelity"] = doc["fidelity"]
    return record


def record_from_manifest(manifest: Dict, *,
                         source: str = "metrics") -> Dict:
    """Fold one ``metrics.json`` manifest (a single experiment run)."""
    prov = manifest.get("provenance") or {}
    exp_id = (manifest.get("experiment") or {}).get("id")
    record = {
        "kind": "metrics",
        "source": source,
        "created_utc": prov.get("created_utc"),
        "git_sha": prov.get("git_sha"),
        "git_dirty": prov.get("git_dirty"),
        "code_fingerprint": prov.get("code_fingerprint"),
        "calibration_miters_s": None,
        "experiment": exp_id,
    }
    hostscope = manifest.get("hostscope") or {}
    regions = hostscope.get("regions") or {}
    if regions:
        record["hostscope_regions"] = {
            name: r.get("self_s") for name, r in regions.items()}
    if hostscope.get("throughput"):
        record["throughput"] = hostscope["throughput"]
    execution = manifest.get("execution") or {}
    if execution:
        record["execution"] = {
            key: execution[key]
            for key in ("jobs", "cache_hits", "cache_misses", "computed",
                        "wall_s", "units_planned")
            if key in execution}
    if exp_id and manifest.get("headline"):
        residuals = fidelity_residuals(exp_id, manifest["headline"])
        if residuals:
            record["fidelity"] = {exp_id: residuals}
    return record


def record_from_server_stats(stats: Dict, *,
                             source: str = "server") -> Dict:
    """Fold a server ``stats`` document: lifetime job-latency series per
    experiment (from the ``repro_job_latency_seconds`` histogram) plus
    the fabric's lifetime cache/unit counters."""
    metrics = stats.get("metrics") or {}

    def _series(name):
        return (metrics.get(name) or {}).get("series") or []

    def _counter_total(name):
        return int(sum(row.get("value", 0) or 0 for row in _series(name)))

    job_latency: Dict[str, Dict] = {}
    for row in _series("repro_job_latency_seconds"):
        exp_id = (row.get("labels") or {}).get("experiment") or "?"
        count = int(row.get("count", 0) or 0)
        if not count:
            continue
        total = float(row.get("sum", 0.0) or 0.0)
        job_latency[exp_id] = {"count": count,
                               "sum_s": round(total, 4),
                               "mean_s": round(total / count, 4)}
    record = {
        "kind": "server",
        "source": source,
        "created_utc": datetime.now(timezone.utc).isoformat(
            timespec="seconds"),
        "calibration_miters_s": None,
        "jobs": stats.get("jobs") or {},
        "uptime_s": stats.get("uptime_s"),
        "job_latency": job_latency,
        "fabric": {"cache_hits": _counter_total("repro_cache_hits_total"),
                   "cache_misses":
                       _counter_total("repro_cache_misses_total"),
                   "units_computed":
                       _counter_total("repro_units_computed_total"),
                   "unit_retries":
                       _counter_total("repro_unit_retries_total")},
    }
    record.update(_provenance())
    return record


def fold_document(doc: Dict, *, source: Optional[str] = None) -> Dict:
    """Auto-detect a document's shape and build the matching record."""
    if not isinstance(doc, dict):
        raise LedgerError(
            "ledger: expected a JSON object (BENCH_exec.json, "
            "metrics.json, or server stats), got "
            f"{type(doc).__name__}")
    if doc.get("generator") == "repro.exec.bench" or (
            "experiments" in doc and "totals" in doc):
        return record_from_bench(doc, source=source or "bench")
    if doc.get("generator") == "repro.obs" or "provenance" in doc:
        return record_from_manifest(doc, source=source or "metrics")
    if "jobs" in doc and "metrics" in doc:
        return record_from_server_stats(doc, source=source or "server")
    raise LedgerError(
        "ledger: unrecognized document shape; foldable inputs are a "
        "bench document (python -m repro bench --bench-out), a metrics "
        "manifest (--metrics), or server stats JSON (repro.sdk stats)")


# -- trajectory analysis ---------------------------------------------------

def _bench_records(records: List[Dict]) -> List[Dict]:
    return [r for r in records if r.get("kind") == "bench"]


def _median(values: List[float]) -> float:
    ordered = sorted(values)
    mid = len(ordered) // 2
    return (ordered[mid] if len(ordered) % 2
            else 0.5 * (ordered[mid - 1] + ordered[mid]))


def _normalization(records: List[Dict]) -> Optional[List[float]]:
    """Per-record host-speed factors, or ``None`` when any record lacks
    a positive calibration score (then raw values are the only honest
    basis, and no score is ever divided by).

    A record's timings are multiplied by ``calibration / median
    calibration``: seconds spent on a fast host count for more work, so
    the series compares code cost, not machine luck.  The score is a
    fixed pure-Python microbenchmark, independent of the experiments
    under test, so even a slowdown of every experiment cannot hide
    inside the normalizer.
    """
    scores = [r.get("calibration_miters_s") for r in records]
    if not scores or not all(isinstance(score, (int, float)) and score > 0
                             for score in scores):
        return None
    ref = _median(scores)
    return [score / ref for score in scores]


def _metric_value(record: Dict, exp_id: str, metric: str,
                  factor: float) -> Optional[float]:
    if metric == "fidelity":
        entry = (record.get("fidelity") or {}).get(exp_id)
        return entry.get("max_abs_rel_err") if entry else None
    row = (record.get("experiments") or {}).get(exp_id)
    if row is None or row.get(metric) is None:
        return None
    value = float(row[metric])
    if metric in _TIMING_METRICS:
        return value * factor          # slower host -> smaller factor
    if metric in _THROUGHPUT_METRICS:
        return value / factor if factor else value
    return value


def _sparkline(values: List[float]) -> str:
    lo, hi = min(values), max(values)
    if hi - lo < 1e-12:
        return _SPARK[0] * len(values)
    return "".join(
        _SPARK[int((v - lo) / (hi - lo) * (len(_SPARK) - 1))]
        for v in values)


def trend(records: List[Dict], *, metric: str = "serial_s",
          experiment: Optional[str] = None,
          window: Optional[int] = None) -> Dict:
    """Per-experiment series of ``metric`` across bench records."""
    if metric not in TREND_METRICS:
        raise LedgerError(
            f"ledger: unknown trend metric {metric!r}; one of "
            + ", ".join(TREND_METRICS))
    bench = _bench_records(records)
    if window:
        bench = bench[-window:]
    factors = _normalization(bench)
    exp_ids: List[str] = []
    for rec in bench:
        for exp_id in (rec.get("experiments") or {}):
            if exp_id not in exp_ids:
                exp_ids.append(exp_id)
    if experiment is not None:
        if experiment not in exp_ids:
            raise LedgerError(
                f"ledger: no records for experiment {experiment!r}; "
                "ledger has: " + (", ".join(exp_ids) or "none"))
        exp_ids = [experiment]
    experiments: Dict[str, Dict] = {}
    for exp_id in exp_ids:
        values = []
        for rec, factor in zip(bench, factors or [1.0] * len(bench)):
            value = _metric_value(rec, exp_id, metric, factor)
            if value is not None:
                values.append(round(value, 4))
        if not values:
            continue
        experiments[exp_id] = {
            "values": values,
            "latest": values[-1],
            "min": min(values),
            "max": max(values),
            "spark": _sparkline(values),
        }
    return {
        "metric": metric,
        "normalized": factors is not None,
        "records": len(bench),
        "experiments": experiments,
    }


def render_trend(report: Dict) -> str:
    note = ("calibration-normalized" if report["normalized"]
            else "raw (some records lack a calibration score)")
    lines = [f"ledger trend: {report['metric']} over "
             f"{report['records']} bench records ({note})"]
    if not report["experiments"]:
        lines.append("  (no data — append bench records first)")
        return "\n".join(lines)
    width = max(len(e) for e in report["experiments"])
    for exp_id, row in report["experiments"].items():
        lines.append(
            f"  {exp_id:<{width}}  {row['spark']}  "
            f"{row['values'][0]:g} -> {row['latest']:g}  "
            f"[min {row['min']:g}, max {row['max']:g}, "
            f"n={len(row['values'])}]")
    return "\n".join(lines)


def judge(candidate: Dict, history: List[Dict], *,
          threshold: float = 0.25, min_abs_s: float = 0.02,
          metric: str = "serial_s") -> Dict:
    """The regression rule: one candidate record against its history.

    ``bench --compare`` judges a fresh run against the record of its
    baseline document, ``ledger diff`` record ``b`` against ``[a]``,
    ``ledger gate`` the newest record against the rest of its window.

    Timings are calibration-normalized (:func:`_normalization`) when
    every record in view carries a host score, and compared raw
    otherwise.  Per experiment the history yields a median and a MAD;
    the noise band around the median is ``max(threshold * median,
    3 * 1.4826 * MAD)`` — three robust standard deviations or the
    threshold, whichever is wider.  The status is

    * ``regression`` — normalized value above ``median + band`` AND a
      raw slowdown above ``min_abs_s`` (timer noise is not a regression
      at any ratio);
    * ``improved`` — normalized value below ``median - band``;
    * ``ok`` — within the band.

    With one history record the band is ``threshold * baseline`` and
    the normalized ratio is ``(cur_s * cur_score) / (base_s *
    base_score)``.  Any fidelity anchor out of tolerance in the
    candidate fails the verdict regardless of speed.  Resilience
    counters (candidate vs the newest history record) ride along for
    the reports; they never change the verdict, because a retried but
    identical run is a fabric save, not a code regression.
    """
    if metric not in _TIMING_METRICS:
        raise LedgerError(
            f"ledger: regression metric must be a timing column "
            f"({', '.join(_TIMING_METRICS)}), got {metric!r}")
    view = history + [candidate]
    factors = _normalization(view)
    scale = factors or [1.0] * len(view)
    latest = history[-1] if history else {}
    cur_rows = candidate.get("experiments") or {}
    seen = {exp_id for rec in history
            for exp_id in rec.get("experiments") or {}}
    report: Dict = {
        "metric": metric, "threshold": threshold, "min_abs_s": min_abs_s,
        "history": len(history), "normalized": factors is not None,
        "baseline_git_sha": latest.get("git_sha"),
        "baseline_fingerprint": latest.get("code_fingerprint"),
        "current_git_sha": candidate.get("git_sha"),
        "current_fingerprint": candidate.get("code_fingerprint"),
        "experiments": {}, "resilience": {}, "regressions": [],
        "improvements": [], "fidelity_breaches": [],
        "new": sorted(set(cur_rows) - seen) if history else [],
        "missing": sorted(seen - set(cur_rows)),
    }
    for exp_id in cur_rows:
        raw = _metric_value(candidate, exp_id, metric, 1.0)
        hist = []   # (raw, normalized) per history record with a value
        for rec, factor in zip(history, scale):
            value = _metric_value(rec, exp_id, metric, 1.0)
            if value is not None:
                hist.append((value, value * factor))
        if raw is None or not hist:
            continue
        base = _median([value for value, _ in hist])
        med = _median([norm for _, norm in hist])
        mad = _median([abs(norm - med) for _, norm in hist])
        band = max(threshold * med, 3 * 1.4826 * mad)
        value = raw * scale[-1]
        status = "ok"
        if value - med > band and raw - base > min_abs_s:
            status = "regression"
            report["regressions"].append(f"{exp_id}: {metric}")
        elif med - value > band:
            status = "improved"
            report["improvements"].append(f"{exp_id}: {metric}")
        report["experiments"][exp_id] = {
            "baseline_s": round(base, 4),
            "current_s": round(raw, 4),
            "ratio": round(raw / base, 4) if base > 0 else 1.0,
            "normalized_ratio": round(value / med, 4) if med > 0 else 1.0,
            "band": round(band / med, 4) if med > 0 else 0.0,
            "delta_s": round(raw - base, 4),
            "history_n": len(hist),
            "status": status,
        }
        base_r = (latest.get("experiments") or {}).get(exp_id, {})
        sides = {"baseline": base_r.get("resilience") or {},
                 "current": cur_rows[exp_id].get("resilience") or {}}
        if sides["baseline"] or sides["current"]:
            report["resilience"][exp_id] = sides
    for exp_id, entry in (candidate.get("fidelity") or {}).items():
        for name, anchor in (entry.get("metrics") or {}).items():
            if not anchor.get("within_tolerance", True):
                report["fidelity_breaches"].append(
                    f"{exp_id}: {name} (rel_err {anchor.get('rel_err')}, "
                    f"tolerance {anchor.get('tolerance')})")
    report["pass"] = not report["regressions"] \
        and not report["fidelity_breaches"]
    return report


def render_verdict(report: Dict) -> str:
    """Human-readable :func:`judge` report (bench --compare, ledger
    diff, ledger gate)."""
    note = ("calibration-normalized" if report["normalized"]
            else "raw: a record in view lacks a calibration score")
    metric = report["metric"]
    table = Table(
        f"{metric} regression check vs {report['history']} history "
        f"record(s) (threshold {report['threshold']:.0%}, {note})",
        ["experiment", "n", "baseline s", "current s", "ratio", "norm",
         "band", "status"])
    for exp_id, row in report["experiments"].items():
        table.add_row(exp_id, row["history_n"], f"{row['baseline_s']:.3f}",
                      f"{row['current_s']:.3f}", f"{row['ratio']:.2f}x",
                      f"{row['normalized_ratio']:.2f}x",
                      f"±{row['band']:.0%}",
                      row["status"].upper() if row["status"] == "regression"
                      else row["status"])
    lines = [table.render()]
    if report.get("reason"):
        lines.append(report["reason"])
    if report["new"]:
        lines.append("new experiments (no history): "
                     + ", ".join(report["new"]))
    if report["missing"]:
        lines.append("missing vs history: " + ", ".join(report["missing"]))
    if report["resilience"]:
        lines.append("fault events survived (baseline->current): " + ", ".join(
            f"{exp_id} {sum(sides['baseline'].values())}->"
            f"{sum(sides['current'].values())}"
            for exp_id, sides in report["resilience"].items()))
    for breach in report["fidelity_breaches"]:
        lines.append(f"FIDELITY BREACH {breach}")
    if report["pass"]:
        lines.append(f"PASS: no {metric} regressions, fidelity within "
                     "tolerance")
    else:
        lines.append("FAIL: " + "; ".join(report["regressions"]
                                          + report["fidelity_breaches"]))
    return "\n".join(lines)


def gate(records: List[Dict], *, window: int = 10,
         threshold: float = 0.25, min_abs_s: float = 0.02,
         metric: str = "serial_s") -> Dict:
    """Windowed regression check: :func:`judge` on the newest of the
    last ``window`` bench records, with the rest as history.

    Fewer than 2 history records is a trivial timing pass — one point
    is a baseline, not a trajectory — though a fidelity anchor out of
    tolerance in the newest record still fails.
    """
    bench = _bench_records(records)[-window:]
    newest, history = (bench[-1], bench[:-1]) if bench else ({}, [])
    report = judge(newest, history if len(history) >= 2 else [],
                   threshold=threshold, min_abs_s=min_abs_s,
                   metric=metric)
    report["window"] = window
    if not bench:
        report["reason"] = "no bench records in ledger"
    elif len(history) < 2:
        report["reason"] = (
            f"insufficient history ({len(history)} prior records, "
            "need 2): trivial pass")
    return report


# -- CLI -------------------------------------------------------------------

def _summarize(record: Dict) -> str:
    exps = record.get("experiments") or {}
    fid = record.get("fidelity") or {}
    worst = max((entry.get("max_abs_rel_err", 0.0)
                 for entry in fid.values()), default=None)
    parts = [f"kind={record.get('kind')}",
             f"created={record.get('created_utc')}",
             f"git={str(record.get('git_sha'))[:12]}"
             + ("+dirty" if record.get("git_dirty") else "")]
    if exps:
        parts.append(f"experiments={len(exps)}")
        total = sum(float(r.get("serial_s") or 0) for r in exps.values())
        parts.append(f"serial_s={total:.3f}")
    if worst is not None:
        parts.append(f"max_fidelity_err={worst:g}")
    return " ".join(parts)


def _build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="repro ledger",
        description="Longitudinal performance-and-fidelity ledger: "
                    "append-only checksummed JSONL records of bench "
                    "timings, throughput, and Fig 2-8 fidelity "
                    "residuals, with trend sparklines and a windowed "
                    "median/MAD regression gate.")
    sub = parser.add_subparsers(dest="verb", required=True)

    def _common(p):
        p.add_argument("--ledger", default=DEFAULT_LEDGER_PATH,
                       metavar="PATH",
                       help="ledger file (default: %(default)s)")

    p = sub.add_parser("record", help="fold a JSON document into the "
                                      "ledger (shape auto-detected)")
    _common(p)
    p.add_argument("file", help="BENCH_exec.json, metrics.json manifest, "
                                "or server-stats JSON")
    p.add_argument("--source", default=None,
                   help="origin tag stored on the record (default: by "
                        "document kind)")

    p = sub.add_parser("show", help="print one record")
    _common(p)
    p.add_argument("--index", type=int, default=-1,
                   help="record index, negatives from the end "
                        "(default: %(default)s)")
    p.add_argument("--json", action="store_true",
                   help="full record as JSON instead of a summary")

    p = sub.add_parser("trend", help="per-experiment sparklines")
    _common(p)
    p.add_argument("--metric", default="serial_s", choices=TREND_METRICS,
                   help="column to plot (default: %(default)s)")
    p.add_argument("--experiment", default=None,
                   help="restrict to one experiment id")
    p.add_argument("--window", type=int, default=None,
                   help="only the last N bench records (default: all)")
    p.add_argument("--json", action="store_true",
                   help="machine-readable report")

    p = sub.add_parser("diff", help="judge record --b against record "
                                    "--a")
    _common(p)
    p.add_argument("--a", type=int, default=-2,
                   help="baseline record index (default: %(default)s)")
    p.add_argument("--b", type=int, default=-1,
                   help="current record index (default: %(default)s)")
    p.add_argument("--threshold", type=float, default=0.25,
                   help="regression threshold (default: %(default)s)")
    p.add_argument("--min-abs-s", type=float, default=0.02,
                   help="noise guard: min absolute slowdown in seconds "
                        "(default: %(default)s)")
    p.add_argument("--json", action="store_true",
                   help="machine-readable report")

    p = sub.add_parser("gate", help="windowed regression gate "
                                    "(exit 1 on sustained regression "
                                    "or fidelity breach)")
    _common(p)
    p.add_argument("--window", type=int, default=10,
                   help="bench records considered (default: %(default)s)")
    p.add_argument("--threshold", type=float, default=0.25,
                   help="regression threshold vs history median "
                        "(default: %(default)s)")
    p.add_argument("--min-abs-s", type=float, default=0.02,
                   help="noise guard: min absolute slowdown in seconds "
                        "(default: %(default)s)")
    p.add_argument("--metric", default="serial_s",
                   choices=_TIMING_METRICS,
                   help="timing column gated (default: %(default)s)")
    p.add_argument("--json", action="store_true",
                   help="machine-readable report")
    return parser


def _load_records(path: str, verb: str) -> Tuple[List[Dict], int]:
    ledger = Ledger(path)
    records, skipped = ledger.read()
    if not records:
        raise LedgerError(
            f"ledger {verb}: no readable records in {path}; append one "
            "with 'python -m repro bench --quick --ledger' or "
            "'python -m repro ledger record BENCH_exec.json'")
    if skipped:
        print(f"ledger: skipped {skipped} corrupt/torn line(s) in "
              f"{path}", file=sys.stderr)
    return records, skipped


def ledger_main(argv: Optional[List[str]] = None) -> int:
    args = _build_parser().parse_args(argv)
    try:
        if args.verb == "record":
            try:
                with open(args.file, encoding="utf-8") as fh:
                    doc = json.load(fh)
            except OSError as exc:
                raise LedgerError(
                    f"ledger record: cannot read {args.file}: "
                    f"{exc.strerror or exc}") from None
            except ValueError as exc:
                raise LedgerError(
                    f"ledger record: {args.file} is not JSON "
                    f"({exc})") from None
            record = fold_document(doc, source=args.source)
            stamped = Ledger(args.ledger).append(record)
            total = len(Ledger(args.ledger).read()[0])
            print(f"ledger: appended {stamped['kind']} record "
                  f"(#{total}, sha256 {stamped['sha256'][:12]}…) "
                  f"to {args.ledger}")
            return 0

        records, _ = _load_records(args.ledger, args.verb)
        if args.verb == "show":
            try:
                record = records[args.index]
            except IndexError:
                raise LedgerError(
                    f"ledger show: index {args.index} out of range "
                    f"({len(records)} records)") from None
            if args.json:
                print(json.dumps(record, indent=2, sort_keys=True))
            else:
                print(_summarize(record))
            return 0
        if args.verb == "trend":
            report = trend(records, metric=args.metric,
                           experiment=args.experiment,
                           window=args.window)
            print(json.dumps(report, indent=2) if args.json
                  else render_trend(report))
            return 0
        if args.verb == "diff":
            bench = _bench_records(records)
            if len(bench) < 2:
                raise LedgerError(
                    f"ledger: diff needs >= 2 bench records, have "
                    f"{len(bench)}; append more with bench --ledger or "
                    "repro ledger record")
            try:
                baseline, current = bench[args.a], bench[args.b]
            except IndexError:
                raise LedgerError(
                    f"ledger: record index out of range (a={args.a}, "
                    f"b={args.b}, {len(bench)} bench records)") from None
            report = judge(current, [baseline], threshold=args.threshold,
                           min_abs_s=args.min_abs_s)
        else:  # gate
            report = gate(records, window=args.window,
                          threshold=args.threshold,
                          min_abs_s=args.min_abs_s, metric=args.metric)
        print(json.dumps(report, indent=2) if args.json
              else render_verdict(report))
        return 0 if report["pass"] else 1
    except LedgerError as exc:
        print(str(exc), file=sys.stderr)
        return 2

"""Longitudinal ledger of benchmark run records (``repro ledger``).

``benchmarks/e2e/run.py`` measures one workload (``des``, ``model``,
``warm`` or ``service``) and writes a run record, by default
``.bench_work/<workload>-seed<N>[-trace].json``: the five end-to-end
metrics (a traced run: the per-layer metrics instead), every time
already scaled to a nominal host speed by ``benchmarks/e2e/hostclock.py``,
the golden-digest checks (``attempted``/``failed``) and the host and
git provenance.  ``repro ledger record`` folds one run record into one
checksummed line of ``benchmarks/LEDGER.jsonl``; the other verbs read
the history back, one series per workload.

The file is written and read by :mod:`repro.core.jsonl`, the same
module as the sweep journal: append-only, one self-checksummed JSON
object per line, fsync'd per append, a torn tail healed by the next
append.  Readers skip torn or corrupt lines (a crash mid-append, a
failed checksum, a foreign ``ledger_schema``) and report them as
``skipped`` instead of crashing — history survives anything short of
deleting the file.

CLI verbs (``python -m repro ledger <verb>``):

* ``record`` — fold one run record into the ledger;
* ``show`` — one record in full;
* ``trend`` — per-workload ASCII sparklines of any metric the records
  carry;
* ``diff`` — record ``--b`` judged against record ``--a`` of the same
  workload;
* ``gate`` — windowed regression detection: the newest record of each
  workload judged against its predecessors in the window, exit 1 on a
  sustained regression or a failed check.

One regression rule, :func:`judge`, gives every verdict.  Its noise band
is ``max(threshold * median, 3 * 1.4826 * MAD)`` over the history — a
noisy history widens its own band, a flat one tightens it, and a single
history record gives ``threshold * baseline``.  Values are judged as
recorded: the benchmark has already scaled them to host speed, so the
ledger applies no second normaliser.

Lines of older kinds (``bench``, ``metrics``, ``server``) still read,
and ``show`` prints them; trend, gate and diff skip them.
"""

from __future__ import annotations

import argparse
import json
import os
import sys
from typing import Dict, List, Optional, Tuple

from ..core import jsonl
from ..core.jsonl import checksum as record_checksum
from ..core.tables import Table

__all__ = ["LEDGER_SCHEMA", "DEFAULT_LEDGER_PATH", "E2E_METRICS", "Ledger",
           "LedgerError", "record_checksum", "fold_document", "trend",
           "render_trend", "judge", "render_verdict", "gate",
           "ledger_main"]

LEDGER_SCHEMA = 1

DEFAULT_LEDGER_PATH = os.path.join("benchmarks", "LEDGER.jsonl")

#: the benchmark's end-to-end metrics, all lower-is-better: what a
#: verdict judges
E2E_METRICS = ("setup_s", "run_s", "request_p50_ms", "peak_rss_mb",
               "fidelity_max_rel_err")

_SPARK = "▁▂▃▄▅▆▇█"


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


# -- the record ------------------------------------------------------------

def fold_document(doc: Dict) -> Dict:
    """The ledger record of one ``benchmarks/e2e/run.py`` run record: its
    metric values, checks and provenance, without the per-pass detail,
    failure texts or spans.  Any other document is refused."""
    if not isinstance(doc, dict):
        raise LedgerError(
            "ledger: expected a JSON object (a benchmarks/e2e/run.py run "
            f"record), got {type(doc).__name__}")
    if "workload" in doc and "metrics" in doc:
        try:
            prov = doc.get("provenance") or {}
            return {
                "kind": "e2e",
                "workload": doc["workload"],
                "seed": prov.get("seed"),
                "trace": bool(doc.get("trace")),
                "metrics": {name: entry["value"]
                            for name, entry in doc["metrics"].items()},
                "attempted": doc.get("attempted"),
                "failed": doc.get("failed"),
                "git_sha": prov.get("git_sha"),
                "git_dirty": prov.get("git_dirty"),
                "code_fingerprint": prov.get("code_fingerprint"),
                "host": prov.get("host"),
            }
        except (AttributeError, KeyError, TypeError):
            pass
    raise LedgerError(
        "ledger: unrecognized document shape; the ledger folds run "
        "records of benchmarks/e2e/run.py "
        "(.bench_work/<workload>-seed<N>.json)")


# -- trajectory analysis ---------------------------------------------------

def _by_workload(records: List[Dict]) -> Dict[str, List[Dict]]:
    """The e2e records of each workload, in ledger order."""
    groups: Dict[str, List[Dict]] = {}
    for rec in records:
        if rec.get("kind") == "e2e":
            groups.setdefault(rec.get("workload"), []).append(rec)
    return groups


def _check_window(window: Optional[int]) -> None:
    if window is not None and window < 1:
        raise LedgerError(
            f"ledger: --window must be >= 1 (got {window}); it counts "
            "the last N records of each workload that carry the metric")


def _measured(recs: List[Dict], metric: str,
              window: Optional[int]) -> List[Dict]:
    """The last ``window`` of ``recs`` that carry a value for ``metric``.

    A record without one — a traced run carries only the per-layer
    metrics — takes no window slot and is never the candidate.
    """
    measured = [rec for rec in recs if _value(rec, metric) is not None]
    return measured if window is None else measured[-window:]


def _value(record: Dict, metric: str) -> Optional[float]:
    """``metric`` of an e2e record, or ``None`` when it has no value."""
    value = (record.get("metrics") or {}).get(metric)
    return float(value) if isinstance(value, (int, float)) else None


def _median(values: List[float]) -> float:
    ordered = sorted(values)
    mid = len(ordered) // 2
    return (ordered[mid] if len(ordered) % 2
            else 0.5 * (ordered[mid - 1] + ordered[mid]))


def _sparkline(values: List[float]) -> str:
    lo, hi = min(values), max(values)
    if hi - lo < 1e-12:
        return _SPARK[0] * len(values)
    return "".join(
        _SPARK[int((v - lo) / (hi - lo) * (len(_SPARK) - 1))]
        for v in values)


def trend(records: List[Dict], *, metric: str = "run_s",
          workload: Optional[str] = None,
          window: Optional[int] = None) -> Dict:
    """Per-workload series of ``metric`` across e2e records.

    Any metric the records carry can be plotted: the end-to-end ones,
    or the per-layer ones of traced records.  A record without a value
    for ``metric`` is left out of its series and of its ``window``
    (``request_p50_ms`` is ``None`` when every submit was refused).
    """
    _check_window(window)
    groups = _by_workload(records)
    if workload is not None:
        if workload not in groups:
            raise LedgerError(
                f"ledger: no e2e records for workload {workload!r}; "
                "ledger has: " + (", ".join(groups) or "none"))
        groups = {workload: groups[workload]}
    carried = sorted({name for recs in groups.values() for rec in recs
                      for name in rec.get("metrics") or {}})
    if groups and metric not in carried:
        raise LedgerError(
            f"ledger: no record carries metric {metric!r}; one of "
            + ", ".join(carried))
    workloads: Dict[str, Dict] = {}
    for name, recs in groups.items():
        values = [_value(rec, metric)
                  for rec in _measured(recs, metric, window)]
        if values:
            workloads[name] = {
                "values": values,
                "latest": values[-1],
                "min": min(values),
                "max": max(values),
                "spark": _sparkline(values),
            }
    return {
        "metric": metric,
        "records": sum(len(row["values"]) for row in workloads.values()),
        "workloads": workloads,
    }


def render_trend(report: Dict) -> str:
    lines = [f"ledger trend: {report['metric']} over "
             f"{report['records']} e2e records"]
    if not report["workloads"]:
        lines.append("  (no data — record benchmarks/e2e run records "
                     "first)")
        return "\n".join(lines)
    width = max(len(name) for name in report["workloads"])
    for name, row in report["workloads"].items():
        lines.append(
            f"  {name:<{width}}  {row['spark']}  "
            f"{row['values'][0]:.4g} -> {row['latest']:.4g}  "
            f"[min {row['min']:.4g}, max {row['max']:.4g}, "
            f"n={len(row['values'])}]")
    return "\n".join(lines)


def _verdict(pairs: List[Tuple[Dict, List[Dict]]], *, threshold: float,
             metric: str) -> Dict:
    """:func:`judge` over ``(candidate, history)`` pairs, one per
    workload, folded into one report."""
    if metric not in E2E_METRICS:
        raise LedgerError(
            f"ledger: regression metric must be an end-to-end metric "
            f"({', '.join(E2E_METRICS)}), got {metric!r}")
    report: Dict = {
        "metric": metric, "threshold": threshold, "workloads": {},
        "regressions": [], "improvements": [], "failures": [],
        "notes": [],
    }
    for candidate, history in pairs:
        name = candidate.get("workload")
        failed = candidate.get("failed") or 0
        if failed:
            report["failures"].append(
                f"{name}: {failed}/{candidate.get('attempted')} checks "
                "failed")
        value = _value(candidate, metric)
        hist = [v for v in (_value(rec, metric) for rec in history)
                if v is not None]
        if value is None:
            report["notes"].append(
                f"{name}: the newest record has no {metric} value")
            continue
        if not hist:
            continue
        med = _median(hist)
        band = max(threshold * med,
                   3 * 1.4826 * _median([abs(v - med) for v in hist]))
        status = "ok"
        if value - med > band:
            status = "regression"
            report["regressions"].append(f"{name}: {metric}")
        elif med - value > band:
            status = "improved"
            report["improvements"].append(f"{name}: {metric}")
        report["workloads"][name] = {
            "history_n": len(hist),
            "baseline": med,
            "current": value,
            "ratio": round(value / med, 4) if med > 0 else 1.0,
            "band": round(band / med, 4) if med > 0 else 0.0,
            "failed": failed,
            "status": status,
        }
    report["pass"] = not report["regressions"] and not report["failures"]
    return report


def judge(candidate: Dict, history: List[Dict], *,
          threshold: float = 0.25, metric: str = "run_s") -> Dict:
    """The regression rule: one e2e record against earlier records of
    its workload.

    ``ledger diff`` judges record ``b`` against ``[a]``; ``ledger gate``
    judges the newest record of each workload against the rest of its
    window.  The history's values give a median and a MAD; the noise
    band around the median is ``max(threshold * median,
    3 * 1.4826 * MAD)`` — three robust standard deviations or the
    threshold, whichever is wider.  Every end-to-end metric is
    lower-is-better, so the status is

    * ``regression`` — the candidate above ``median + band``;
    * ``improved`` — below ``median - band``;
    * ``ok`` — within the band.

    With one history record the band is ``threshold * baseline``.  A
    candidate with ``failed > 0`` fails the verdict whatever its
    speed: one of its results no longer matches its golden digest.
    """
    return _verdict([(candidate, history)], threshold=threshold,
                    metric=metric)


def render_verdict(report: Dict) -> str:
    """Human-readable :func:`judge` report (ledger diff, ledger gate)."""
    metric = report["metric"]
    table = Table(
        f"{metric} regression check against each workload's history "
        f"(threshold {report['threshold']:.0%})",
        ["workload", "n", "baseline", "current", "ratio", "band",
         "failed", "status"])
    for name, row in report["workloads"].items():
        table.add_row(name, row["history_n"], f"{row['baseline']:.4g}",
                      f"{row['current']:.4g}", f"{row['ratio']:.2f}x",
                      f"±{row['band']:.0%}", row["failed"],
                      row["status"].upper() if row["status"] == "regression"
                      else row["status"])
    lines = [table.render(), *report["notes"]]
    if report["pass"]:
        lines.append(f"PASS: no {metric} regressions, no failed checks")
    else:
        lines.append("FAIL: " + "; ".join(report["regressions"]
                                          + report["failures"]))
    return "\n".join(lines)


def gate(records: List[Dict], *, window: int = 10,
         threshold: float = 0.25, metric: str = "run_s") -> Dict:
    """Windowed regression check: per workload, :func:`judge` on the
    newest of its last ``window`` e2e records that carry ``metric``,
    with the rest as history.

    Fewer than 2 history records is a trivial timing pass — one point
    is a baseline, not a trajectory — though failed checks in the
    newest record still fail.  A newer record without the metric (a
    traced run) is judged on its checks alone.
    """
    _check_window(window)
    pairs = []
    notes = []
    for name, recs in _by_workload(records).items():
        newest = recs[-1]
        measured = _measured(recs, metric, window)
        # a newest record without the metric is judged on its checks
        if not measured or (newest is not measured[-1]
                            and newest.get("failed")):
            pairs.append((newest, []))
        if not measured:
            continue
        history = measured[:-1]
        if len(history) < 2:
            notes.append(f"{name}: insufficient history ({len(history)} "
                         "prior records, need 2): trivial pass")
            history = []
        pairs.append((measured[-1], history))
    if not pairs:
        notes.append("no e2e records in ledger")
    report = _verdict(pairs, threshold=threshold, metric=metric)
    report["window"] = window
    report["notes"] = notes + report["notes"]
    return report


# -- CLI -------------------------------------------------------------------

def _summarize(record: Dict) -> str:
    e2e = record.get("kind") == "e2e"
    parts = [f"kind={record.get('kind')}"]
    parts += ([f"workload={record.get('workload')}",
               f"seed={record.get('seed')}"] if e2e
              else [f"created={record.get('created_utc')}"])
    parts.append(f"git={str(record.get('git_sha'))[:12]}"
                 + ("+dirty" if record.get("git_dirty") else ""))
    if e2e:
        parts += [f"{name}={value:.4g}" for name in E2E_METRICS
                  if (value := _value(record, name)) is not None]
        parts.append(f"failed={record.get('failed')}/"
                     f"{record.get('attempted')}")
    return " ".join(parts)


def _build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="repro ledger",
        description="Longitudinal ledger of benchmarks/e2e run records: "
                    "append-only checksummed JSONL, with per-workload "
                    "trend sparklines and a windowed median/MAD "
                    "regression gate.")
    sub = parser.add_subparsers(dest="verb", required=True)

    def _common(p):
        p.add_argument("--ledger", default=DEFAULT_LEDGER_PATH,
                       metavar="PATH",
                       help="ledger file (default: %(default)s)")

    p = sub.add_parser("record", help="fold a benchmarks/e2e run record "
                                      "into the ledger")
    _common(p)
    p.add_argument("file", help="run record written by benchmarks/e2e/"
                                "run.py (.bench_work/<workload>-seed<N>"
                                "[-trace].json)")

    p = sub.add_parser("show", help="print one record")
    _common(p)
    p.add_argument("--index", type=int, default=-1,
                   help="record index, negatives from the end "
                        "(default: %(default)s)")
    p.add_argument("--json", action="store_true",
                   help="full record as JSON instead of a summary")

    p = sub.add_parser("trend", help="per-workload sparklines")
    _common(p)
    p.add_argument("--metric", default="run_s",
                   help="any metric the records carry: an end-to-end "
                        "metric or, from traced records, a per-layer "
                        "one (default: %(default)s)")
    p.add_argument("--workload", default=None,
                   help="restrict to one workload")
    p.add_argument("--window", type=int, default=None,
                   help="only the last N records of each workload "
                        "that carry --metric (default: all)")
    p.add_argument("--json", action="store_true",
                   help="machine-readable report")

    p = sub.add_parser("diff", help="judge record --b against record "
                                    "--a of the same workload")
    _common(p)
    p.add_argument("--a", type=int, default=-2,
                   help="baseline e2e record index (default: "
                        "%(default)s)")
    p.add_argument("--b", type=int, default=-1,
                   help="current e2e record index (default: %(default)s)")
    p.add_argument("--threshold", type=float, default=0.25,
                   help="regression threshold (default: %(default)s)")
    p.add_argument("--json", action="store_true",
                   help="machine-readable report")

    p = sub.add_parser("gate", help="windowed regression gate "
                                    "(exit 1 on sustained regression "
                                    "or failed checks)")
    _common(p)
    p.add_argument("--window", type=int, default=10,
                   help="last N records of each workload that carry "
                        "--metric (default: %(default)s)")
    p.add_argument("--threshold", type=float, default=0.25,
                   help="regression threshold vs history median "
                        "(default: %(default)s)")
    p.add_argument("--metric", default="run_s", choices=E2E_METRICS,
                   help="end-to-end metric gated (default: %(default)s)")
    p.add_argument("--json", action="store_true",
                   help="machine-readable report")
    return parser


def _load_records(path: str, verb: str) -> Tuple[List[Dict], int]:
    ledger = Ledger(path)
    records, skipped = ledger.read()
    if not records:
        raise LedgerError(
            f"ledger {verb}: no readable records in {path}; run "
            "'python3 benchmarks/e2e/run.py --workload des --seed 1', "
            "then 'python -m repro ledger record "
            ".bench_work/des-seed1.json'")
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
            stamped = Ledger(args.ledger).append(fold_document(doc))
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
                           workload=args.workload, window=args.window)
            print(json.dumps(report, indent=2) if args.json
                  else render_trend(report))
            return 0
        if args.verb == "diff":
            e2e = [rec for rec in records if rec.get("kind") == "e2e"]
            if len(e2e) < 2:
                raise LedgerError(
                    f"ledger: diff needs >= 2 e2e records, have "
                    f"{len(e2e)}; append more with 'python -m repro "
                    "ledger record'")
            try:
                baseline, current = e2e[args.a], e2e[args.b]
            except IndexError:
                raise LedgerError(
                    f"ledger: record index out of range (a={args.a}, "
                    f"b={args.b}, {len(e2e)} e2e records)") from None
            if baseline.get("workload") != current.get("workload"):
                raise LedgerError(
                    f"ledger diff: record {args.a} is "
                    f"{baseline.get('workload')!r} and record {args.b} "
                    f"is {current.get('workload')!r}; diff two records "
                    "of one workload")
            report = judge(current, [baseline], threshold=args.threshold)
        else:  # gate
            report = gate(records, window=args.window,
                          threshold=args.threshold, metric=args.metric)
        print(json.dumps(report, indent=2) if args.json
              else render_verdict(report))
        return 0 if report["pass"] else 1
    except LedgerError as exc:
        print(str(exc), file=sys.stderr)
        return 2

"""End-to-end benchmark of the SPP-1000 reproduction.

    python3 benchmarks/e2e/run.py --workload {des,model,warm,service} \\
        --seed N [--seconds S] [--trace {0,1}] [--out FILE]

Run from the root of a checkout.  Prints one ``name value unit`` line
per metric, a ``failed k/n`` check line, with ``--trace 1`` the
per-layer table of one traced pass, and as its last line one JSON
object with the keys ``correct``, ``attempted``, ``failed`` and
``metrics``.  The full record (failures, pass times, layer seconds,
spans, host and git provenance) is written to ``--out``, by default
``.bench_work/<workload>-seed<N>[-trace].json``.
"""

from __future__ import annotations

import argparse
import json
import os
import shutil
import sys
import tempfile
from pathlib import Path

ROOT = Path(__file__).resolve().parents[2]
WORK = ROOT / ".bench_work"


def _provenance(outcome, seed: int) -> dict:
    from repro.exec.bench import host_info
    from repro.exec.fingerprint import code_fingerprint, git_dirty, git_sha

    return {"host": host_info(), "seed": seed, "git_sha": git_sha(),
            "git_dirty": git_dirty(),
            "code_fingerprint": code_fingerprint()[:16],
            "passes": len(outcome.detail["pass_s"])}


def _layer_table(layers_s: dict, wall_s: float) -> str:
    lines = [f"{'layer':<22} {'self s':>10} {'share':>7}"]
    for row, seconds in sorted(layers_s.items(), key=lambda kv: -kv[1]):
        if seconds or row == "other":
            lines.append(f"{row:<22} {seconds:>10.4f} {seconds / wall_s:>7.1%}")
    total = sum(layers_s.values())
    lines.append(f"{'rows + other':<22} {total:>10.4f}   traced wall "
                 f"{wall_s:.4f} s (diff {total / wall_s - 1:+.2e})")
    return "\n".join(lines)


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", required=True,
                        choices=("des", "model", "warm", "service"))
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, default=10.0,
                        help="measure whole passes until this many "
                             "seconds have elapsed (default: %(default)s)")
    parser.add_argument("--trace", type=int, choices=(0, 1), nargs="?",
                        const=1, default=0,
                        help="1: add one traced pass and print the "
                             "per-layer metrics instead")
    parser.add_argument("--out", type=Path, default=None)
    args = parser.parse_args(argv)

    if not (ROOT / "src" / "repro" / "__init__.py").is_file():
        print(f"run.py: {ROOT} has no src/repro package; run the "
              "benchmark from the root of a full checkout", file=sys.stderr)
        return 2
    sys.path.insert(0, str(ROOT / "src"))
    from workloads import run_workload

    WORK.mkdir(exist_ok=True)
    run_dir = Path(tempfile.mkdtemp(prefix=f"{args.workload}-", dir=WORK))
    # temporary files of this process and its children stay in the checkout
    os.environ["TMPDIR"] = tempfile.tempdir = str(run_dir)
    try:
        outcome = run_workload(args.workload, args.seed, args.seconds,
                               bool(args.trace), run_dir)
    finally:
        shutil.rmtree(run_dir, ignore_errors=True)

    checks = outcome.checks
    for name, (value, unit) in outcome.metrics.items():
        print(f"{name} {'n/a' if value is None else f'{value:.6g}'} {unit}")
    print(f"failed {len(checks.failures)}/{checks.attempted}")
    for failure in checks.failures:
        print(f"  {failure}")
    if args.trace:
        print(_layer_table(outcome.detail["layers_s"],
                           outcome.detail["trace_wall_s"]))

    metrics = {name: {"value": value, "unit": unit}
               for name, (value, unit) in outcome.metrics.items()}
    summary = {"correct": not checks.failures,
               "attempted": checks.attempted,
               "failed": len(checks.failures), "metrics": metrics}
    out = args.out or WORK / (f"{args.workload}-seed{args.seed}"
                              f"{'-trace' if args.trace else ''}.json")
    doc = {"workload": args.workload, "seconds": args.seconds,
           "trace": bool(args.trace), **summary,
           "failures": checks.failures, "detail": outcome.detail,
           "provenance": _provenance(outcome, args.seed)}
    out.parent.mkdir(parents=True, exist_ok=True)
    out.write_text(json.dumps(doc, indent=1) + "\n", encoding="utf-8")
    print(json.dumps(summary))
    return 0


if __name__ == "__main__":
    sys.exit(main())

"""Measure the benchmark's own run-to-run spread.

    python3 benchmarks/e2e/stability.py [--seeds 1-10] [--seconds 10]

Runs ``run.py`` untraced twice per (seed, workload): once for set 1 and
once for set 2, workloads interleaved and sets alternating seed by
seed, so every workload's runs span the whole session.  Prints a
markdown table per workload: each set's median of every end-to-end
metric, its spread ``(Q3 - Q1) / median`` with the quartiles of
``statistics.quantiles(values, n=4)``, and the second set's median
against the first.  A spread must stay within the metric's bound, and
should stay below a third of it; the set-to-set difference must stay
within the bound.
"""

from __future__ import annotations

import argparse
import json
import statistics
import subprocess
import sys
from pathlib import Path

from workloads import E2E_METRICS, WORKLOADS

RUN = Path(__file__).with_name("run.py")
SETS = 2


def _seeds(text: str):
    first, _, last = text.partition("-")
    return list(range(int(first), int(last or first) + 1))


def spread(values) -> float:
    q1, _, q3 = statistics.quantiles(values, n=4)
    return (q3 - q1) / statistics.median(values)


def measure(workload: str, seed: int, seconds: float) -> dict:
    proc = subprocess.run(
        [sys.executable, str(RUN), "--workload", workload, "--seed",
         str(seed), "--seconds", str(seconds), "--trace", "0"],
        capture_output=True, text=True, timeout=900, check=True)
    summary = json.loads(proc.stdout.strip().splitlines()[-1])
    if not summary["correct"]:
        raise RuntimeError(f"{workload} seed {seed}: {summary}")
    return {name: m["value"] for name, m in summary["metrics"].items()}


def table(workload: str, sets) -> str:
    first, second = sets
    lines = [f"### {workload}", "",
             "| metric | bound | set 1 median | set 1 spread "
             "| set 2 median | set 2 spread | set 2 vs set 1 |",
             "|---|---:|---:|---:|---:|---:|---:|"]
    for name, (unit, _better, bound) in E2E_METRICS.items():
        cells = []
        medians = []
        for runs in (first, second):
            values = [run[name] for run in runs]
            medians.append(statistics.median(values))
            cells.append(f"{medians[-1]:.4g} {unit} | {spread(values):.1%}")
        lines.append(f"| `{name}` | {bound:.0%} | " + " | ".join(cells)
                     + f" | {medians[1] / medians[0] - 1:+.1%} |")
    return "\n".join(lines)


def main() -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--seeds", type=_seeds, default=_seeds("1-10"))
    parser.add_argument("--seconds", type=float, default=10.0)
    args = parser.parse_args()

    raw = {w: [[] for _ in range(SETS)] for w in WORKLOADS}
    for seed in args.seeds:
        for set_index in range(SETS):
            for workload in WORKLOADS:
                raw[workload][set_index].append(
                    measure(workload, seed, args.seconds))
    for workload in WORKLOADS:
        print(table(workload, raw[workload]))
        print()
    return 0


if __name__ == "__main__":
    sys.exit(main())

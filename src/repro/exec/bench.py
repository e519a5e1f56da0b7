"""Host provenance for benchmark run records.

:func:`host_info` describes the machine a measurement ran on: CPU count
and model, Python version, platform, load average and a calibration
score.  ``benchmarks/e2e/run.py`` stores it in the provenance block of
every run record, and ``repro ledger record`` keeps it with the record.
"""

from __future__ import annotations

import os
import sys
import time
from typing import Dict

__all__ = ["host_info"]


def _calibrate(repeats: int = 3, n: int = 200_000) -> float:
    """Host-speed score: millions of iterations/s of a fixed pure-Python
    loop, best of ``repeats`` (higher = faster host).  Provenance only:
    no verdict divides by it."""
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
    """The ``host`` block: who ran a measurement, and how fast a machine
    it was."""
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

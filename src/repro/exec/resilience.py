"""Host-level fault tolerance policy for the execution fabric.

The *simulated* machine has been fault-tolerant since the
:mod:`repro.faults` layer landed; this module hardens the **host**
side — the worker processes, queues, and cache files a ``--jobs N``
sweep actually runs on.  Long sweep campaigns die to killed workers,
hung processes, and corrupted result files far more often than to raw
compute cost (the lesson of every commodity-cluster effort in
PAPERS.md), so the fabric treats those as expected events:

* :class:`ResiliencePolicy` — per-unit wall-clock timeouts, bounded
  exponential-backoff retries, and the poison-unit quarantine
  threshold, all tunable from the CLI (``--unit-timeout``,
  ``--retries``);
* :class:`UnitFailure` — the full story of one unit that exhausted its
  attempts: key, attempt count, error, and the *original* traceback
  (never a pool-internals one);
* :class:`UnitExecutionError` — raised by the fabric after the sweep
  has drained, naming every quarantined unit so one poison unit cannot
  sink the results of the rest (they are cached and a rerun skips
  them);
* :class:`ResilienceStats` — the counter block surfaced in execution
  reports and metrics manifests.

The pinned contract: none of this machinery may change *results*.  A
retried, replayed, or serially-degraded unit recomputes the same pure
function of (params, config, fault plan, seed) and must produce bytes
identical to a clean serial run.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Dict, List, Optional

__all__ = ["ResiliencePolicy", "ResilienceStats", "UnitFailure",
           "UnitExecutionError", "DEFAULT_MAX_RETRIES", "DEFAULT_POLICY"]

#: worker attempts after the first, before the final in-process attempt
DEFAULT_MAX_RETRIES = 2


@dataclass(frozen=True)
class ResiliencePolicy:
    """How the pool reacts when a unit fails, stalls, or hangs.

    A unit gets ``1 + max_retries`` pool attempts, separated by
    ``backoff_s * 2**(attempt-1)`` seconds of host-time backoff, plus
    one final in-process attempt (the serial-degradation path: a unit
    that only fails inside workers — a poisoned fork state, a
    crash-looping node — still completes).  Only when *every* attempt
    fails is the unit quarantined and recorded as failed-with-traceback.

    ``unit_timeout_s`` doubles as the hung-worker detector: a worker
    that heartbeats the start of a unit but neither finishes nor fails
    within the timeout is terminated and replaced, and the unit is
    retried.  ``None`` (the default) disables the timeout — a clean run
    never pays for supervision it did not ask for.
    """

    unit_timeout_s: Optional[float] = None  #: wall-clock limit per attempt
    max_retries: int = DEFAULT_MAX_RETRIES  #: pool retries after attempt 1
    backoff_s: float = 0.05                 #: base host-time retry backoff
    max_worker_replacements: Optional[int] = None  #: default: 2*jobs + 2

    def __post_init__(self):
        if self.unit_timeout_s is not None and self.unit_timeout_s <= 0:
            raise ValueError(
                f"unit_timeout_s must be > 0 seconds, got "
                f"{self.unit_timeout_s!r} (use None to disable timeouts)")
        if self.max_retries < 0:
            raise ValueError(
                f"max_retries must be >= 0, got {self.max_retries!r}")
        if self.backoff_s < 0:
            raise ValueError(
                f"backoff_s must be >= 0 seconds, got {self.backoff_s!r}")

    @property
    def pool_attempts(self) -> int:
        """Attempts granted inside the pool (before serial degradation)."""
        return 1 + self.max_retries

    def backoff_for(self, attempt: int) -> float:
        """Host seconds to wait before retry ``attempt`` (2, 3, ...)."""
        if attempt <= 1 or self.backoff_s == 0:
            return 0.0
        return self.backoff_s * (2.0 ** (attempt - 2))

    def replacement_budget(self, jobs: int) -> int:
        """Worker replacements tolerated before degrading to serial."""
        if self.max_worker_replacements is not None:
            return self.max_worker_replacements
        return 2 * jobs + 2


@dataclass
class UnitFailure:
    """One unit that exhausted every attempt; carries the real traceback."""

    key: str
    experiment_id: str
    attempts: int
    error: str                      #: repr of the final exception
    traceback: str = ""             #: formatted traceback of that exception
    exception: Optional[BaseException] = None  #: in-process failures only

    def describe(self) -> str:
        return (f"unit {self.key!r} failed after {self.attempts} "
                f"attempt{'s' if self.attempts != 1 else ''}: {self.error}")


class UnitExecutionError(RuntimeError):
    """Raised after a sweep drains with quarantined (poison) units.

    The sweep itself completed every healthy unit first — their values
    are in the cache, so a rerun after the fix recomputes only the
    named units.  ``failures`` holds one
    :class:`UnitFailure` per poisoned unit, original tracebacks
    included.
    """

    def __init__(self, experiment_id: str, failures: List[UnitFailure],
                 completed: int):
        self.experiment_id = experiment_id
        self.failures = failures
        self.completed = completed
        lines = [
            f"{len(failures)} of {completed + len(failures)} work units "
            f"failed permanently in experiment {experiment_id!r} "
            f"(the other {completed} completed and are cached):"]
        for failure in failures:
            lines.append(f"  - {failure.describe()}")
            if failure.traceback:
                lines.append("    original traceback:")
                for tb_line in failure.traceback.rstrip().splitlines():
                    lines.append(f"      {tb_line}")
        super().__init__("\n".join(lines))


class ResilienceStats:
    """Counters for everything the fabric survived during one run."""

    def __init__(self):
        self.retries = 0                 #: unit attempts after the first
        self.timeouts = 0                #: attempts cancelled by timeout
        self.hung_workers_replaced = 0   #: workers killed for hanging
        self.workers_replaced = 0        #: all replacements (crash + hang)
        self.serial_fallbacks = 0        #: units degraded to in-process
        self.quarantined: List[UnitFailure] = []
        self.chaos_injected: Dict[str, int] = {}  #: kind -> count

    @property
    def quarantined_count(self) -> int:
        return len(self.quarantined)

    def any(self) -> bool:
        """Whether anything at all went (recoverably) wrong."""
        return bool(self.retries or self.timeouts
                    or self.hung_workers_replaced or self.workers_replaced
                    or self.serial_fallbacks or self.quarantined
                    or self.chaos_injected)

    def count_chaos(self, kind: str) -> None:
        self.chaos_injected[kind] = self.chaos_injected.get(kind, 0) + 1

    def to_dict(self) -> Dict[str, object]:
        out: Dict[str, object] = {
            "retries": self.retries,
            "timeouts": self.timeouts,
            "hung_workers_replaced": self.hung_workers_replaced,
            "workers_replaced": self.workers_replaced,
            "serial_fallbacks": self.serial_fallbacks,
            "quarantined_units": [f.key for f in self.quarantined],
        }
        if self.chaos_injected:
            out["chaos_injected"] = dict(self.chaos_injected)
        return out


# Shared by call sites that did not ask for a policy; frozen, so safe.
DEFAULT_POLICY = ResiliencePolicy()

"""The four benchmark workloads: seeded inputs, measured passes, checks.

* ``des`` — discrete-event experiments, serial, no cache.  Host time is
  the simulator's: heap, dispatch, memory, app.  No FEM meshes.
* ``model`` — analytic experiments, serial, no cache.  Zero simulated
  events; today almost all of it is FEM mesh construction.
* ``warm`` — every unit-aware experiment read back from a result cache
  that set-up filled with a ``jobs=2`` pool: plan + lookup + assembly.
* ``service`` — a ``repro serve`` subprocess driven by a closed loop of
  SDK clients: cold jobs (fresh seeds, so new cache keys with the same
  data) then warm resubmits of each client's own earlier specs.

Every workload repeats whole passes until ``seconds`` have elapsed
(at least one) and reports the median pass and the median request (one
experiment, or one service job).  Every end-to-end time is scaled to a
nominal host speed by :class:`hostclock.HostClock`.  Every result is
checked against ``golden.json``.  A traced run adds one more pass under
the span wrappers of :mod:`spans` and reports the per-layer table of
that pass, in wall seconds.
"""

from __future__ import annotations

import json
import os
import random
import re
import resource
import select
import signal
import statistics
import subprocess
import sys
import threading
import time
from concurrent.futures import ThreadPoolExecutor
from dataclasses import dataclass, field
from pathlib import Path
from typing import Callable, Dict, Iterator, List, Optional, Tuple

from hostclock import HostClock
from spans import LAYERS, SpanRecorder, patched

ROOT = Path(__file__).resolve().parents[2]
SRC = ROOT / "src"
GOLDEN_PATH = Path(__file__).with_name("golden.json")

HYPERNODES = 2
DES = ("fig2", "fig3", "fig4", "contention", "degraded")
MODEL = ("fig6", "fig7", "fig8", "memclass", "scale128", "table1", "table2")
#: every unit-aware experiment, in registration order
ALL = DES + MODEL
#: A synthetic mix (README.md gives what each number exercises).
#: ``degraded`` is left out: it pushes fault plans on a process-global
#: stack, so two concurrent jobs in one server can read each other's plan
SERVICE_MIX = ("fig2", "fig3", "fig4", "contention")
COLD_PER_CLIENT = 30
#: more warm jobs than cold ones, so the median job is a warm one and
#: ``request_p50_ms`` of ``service`` gates the warm path
WARM_PER_CLIENT = 100
#: clients wait for each other after every stretch of this many cold or
#: warm jobs, and the host reference is sampled while the server is idle
COLD_STRETCH = 5
WARM_STRETCH = 25
#: set-up samples per run; the host's speed changes in phases of
#: seconds, and three samples left ``setup_s`` spreading 25-54%
SETUP_REPEATS = 11

#: end-to-end metrics, printed by an untraced run:
#: name -> (unit, better, bound).  STABILITY.md gives the reason for
#: each bound.
E2E_METRICS = {
    "setup_s": ("s", "lower", 0.25),
    "run_s": ("s", "lower", 0.25),
    "request_p50_ms": ("ms", "lower", 0.25),
    "peak_rss_mb": ("MiB", "lower", 0.10),
    "fidelity_max_rel_err": ("ratio", "lower", 0.01),
}

#: per-layer metrics, printed by a traced run: name -> (unit, better)
LAYER_METRICS = {f"{row}_share": ("frac", "lower") for row in LAYERS}
LAYER_METRICS.update({
    "apps.problem_builds": ("count", "lower"),
    "apps.fem_mesh_builds": ("count", "lower"),
    "perfmodel.runs": ("count", "lower"),
    "machine.builds": ("count", "lower"),
    "sim.events": ("count", "lower"),
    "sim.processes": ("count", "lower"),
    "sim.heap_max_depth": ("count", "lower"),
    "sim.mcycles_per_s": ("Mcycles/s", "higher"),
    "exec.units_computed": ("count", "lower"),
    "exec.cache_hits": ("count", "higher"),
    "exec.cache_hit_rate": ("frac", "higher"),
    "trace.wall_s": ("s", "lower"),
    "trace.overhead_frac": ("frac", "lower"),
})

WORKLOADS = ("des", "model", "warm", "service")


# -- seeded inputs ----------------------------------------------------------

def pass_orders(seed: int, experiments) -> Iterator[List[str]]:
    """Endless seeded sequence of passes, each a permutation of
    ``experiments``."""
    rng = random.Random(seed)
    while True:
        yield rng.sample(list(experiments), len(experiments))


@dataclass
class ClientSpecs:
    """One service client's jobs, as ``(experiment, job seed)`` pairs."""

    cold: List[Tuple[str, int]]
    warm: List[Tuple[str, int]]

    def stretches(self) -> List[Tuple[str, List[Tuple[str, int]]]]:
        """``(phase, specs)`` per stretch, in submission order."""
        return ([("cold", self.cold[k:k + COLD_STRETCH])
                 for k in range(0, len(self.cold), COLD_STRETCH)]
                + [("warm", self.warm[k:k + WARM_STRETCH])
                   for k in range(0, len(self.warm), WARM_STRETCH)])


def service_specs(seed: int, n_clients: int, mix: int = 0
                  ) -> List[ClientSpecs]:
    """The closed-loop traffic of one service mix.

    Every client gets the same balanced multiset of cold experiments in
    every stretch, in its own seeded order, so the simulated work per
    client and stretch is fixed, no client waits long for another at a
    stretch's end, and only the order varies with ``seed``.  Job seeds
    are unique per (seed, mix, client, job): each cold job is a new
    cache key with the same data.  Warm specs are drawn from the client's own cold specs.
    """
    clients = []
    for client in range(n_clients):
        rng = random.Random(f"service:{seed}:{mix}:{client}")
        names = []
        for k in range(0, COLD_PER_CLIENT, COLD_STRETCH):
            stretch = [SERVICE_MIX[i % len(SERVICE_MIX)]
                       for i in range(k, min(k + COLD_STRETCH,
                                             COLD_PER_CLIENT))]
            rng.shuffle(stretch)
            names += stretch
        base = ((seed * 100 + mix) * 100 + client) * 100
        cold = [(name, base + i) for i, name in enumerate(names)]
        warm = [rng.choice(cold) for _ in range(WARM_PER_CLIENT)]
        clients.append(ClientSpecs(cold, warm))
    return clients


# -- correctness ------------------------------------------------------------

def load_golden() -> Dict[str, str]:
    with open(GOLDEN_PATH, encoding="utf-8") as fh:
        return json.load(fh)["digests"]


def digest(data) -> str:
    """sha256 of the result data's canonical JSON."""
    from repro.core.canon import stable_hash

    return stable_hash(data)


class Checks:
    """Counts every checked operation and every failure among them:
    exceptions, refused submits, golden mismatches, and warm requests
    that recomputed instead of reading the cache."""

    def __init__(self, golden: Dict[str, str]):
        self.golden = golden
        self.attempted = 0
        self.failures: List[str] = []
        self.data: Dict[str, Dict] = {}

    def fail(self, what: str) -> None:
        self.attempted += 1
        self.failures.append(what)

    def result(self, exp: str, data, computed: Optional[int] = None,
               warm: bool = False) -> None:
        if warm and computed:
            self.fail(f"{exp}: warm request recomputed {computed} units")
            return
        got = digest(data)
        if got != self.golden[exp]:
            self.fail(f"{exp}: result digest {got[:12]} differs from "
                      f"golden {self.golden[exp][:12]}")
            return
        self.attempted += 1
        self.data.setdefault(exp, data)

    def outcome(self, exp: str, outcome, warm: bool = False) -> None:
        """Check an in-process ``execute`` outcome (or its exception)."""
        if isinstance(outcome, Exception):
            self.fail(f"{exp}: {type(outcome).__name__}: {outcome}")
            return
        result, report = outcome
        self.result(exp, result.data, report.computed, warm)

    def merge(self, other: "Checks") -> None:
        self.attempted += other.attempted
        self.failures += other.failures
        for exp, data in other.data.items():
            self.data.setdefault(exp, data)


def fidelity_max_rel_err(data: Dict[str, Dict]) -> float:
    """Largest |relative error| of any golden fidelity anchor over the
    experiments this workload ran (0 when no anchored result passed)."""
    from repro.obs.fidelity import fidelity_residuals

    errs = [res["max_abs_rel_err"]
            for exp, d in data.items()
            if (res := fidelity_residuals(exp, d)) is not None]
    return max(errs, default=0.0)


def peak_rss_mb() -> float:
    """Peak RSS of this process or any waited-for child, in MiB."""
    kib = max(resource.getrusage(resource.RUSAGE_SELF).ru_maxrss,
              resource.getrusage(resource.RUSAGE_CHILDREN).ru_maxrss)
    return kib / 1024


# -- outcome ------------------------------------------------------------------

@dataclass
class Outcome:
    """What one run measured: metrics as name -> (value, unit)."""

    metrics: Dict[str, Tuple[float, str]]
    checks: Checks
    detail: Dict = field(default_factory=dict)


def _e2e(setup_s: float, pass_s: List[float], request_ms: List[float],
         checks: Checks) -> Dict[str, Tuple[Optional[float], str]]:
    """The end-to-end metrics; ``request_p50_ms`` is None when no
    request returned."""
    values = {"setup_s": setup_s, "run_s": statistics.median(pass_s),
              "request_p50_ms": (statistics.median(request_ms)
                                 if request_ms else None),
              "peak_rss_mb": peak_rss_mb(),
              "fidelity_max_rel_err": fidelity_max_rel_err(checks.data)}
    return {name: (values[name], E2E_METRICS[name][0])
            for name in E2E_METRICS}


def _layers(rows: Dict[str, float], wall_s: float, counts: Dict[str, float],
            overhead: float) -> Dict[str, Tuple[float, str]]:
    values = {f"{row}_share": rows.get(row, 0.0) / wall_s for row in LAYERS}
    values.update(counts)
    values["trace.wall_s"] = wall_s
    values["trace.overhead_frac"] = overhead
    return {name: (values.get(name, 0), LAYER_METRICS[name][0])
            for name in LAYER_METRICS}


# -- in-process workloads (des, model, warm) ----------------------------------

_SETUP_PROBE = """
import sys, time
t0 = time.perf_counter()
sys.path.insert(0, sys.argv[1])
from repro.core.config import spp1000
from repro.exec import plan_units
import repro.experiments, repro.obs
config = spp1000(n_hypernodes=int(sys.argv[2]))
for exp in sys.argv[3:]:
    plan_units(exp, config, quick=True)
print(time.perf_counter() - t0)
"""


def setup_probe_s(experiments, clock: HostClock) -> float:
    """Median over fresh interpreters of import (including the
    ``repro.obs`` that ``execute`` imports on its first call) + registry
    + config + planning ``experiments``: what every run of the CLI pays
    first.  Each sample is scaled by ``clock``."""
    samples = []
    for _ in range(SETUP_REPEATS):
        out = subprocess.run(
            [sys.executable, "-c", _SETUP_PROBE, str(SRC), str(HYPERNODES),
             *experiments],
            capture_output=True, text=True, timeout=120, check=True)
        samples.append(clock.scale(float(out.stdout.split()[-1])))
    return statistics.median(samples)


def _run_pass(order: List[str], run_one: Callable,
              clock: Optional[HostClock] = None) -> Tuple[list, List[float]]:
    """One pass; an experiment that raises has its exception as its
    outcome, and the pass goes on.  Returns the outcomes and each
    request's time in ms, scaled by ``clock`` when one is given."""
    outcomes = []
    times_ms = []
    for exp in order:
        t0 = time.perf_counter()
        try:
            outcomes.append(run_one(exp))
        except Exception as exc:  # counted as a failure by Checks
            outcomes.append(exc)
        wall_s = time.perf_counter() - t0
        times_ms.append((clock.scale(wall_s) if clock else wall_s) * 1e3)
    return outcomes, times_ms


def _timed_passes(orders: Iterator[List[str]], seconds: float,
                  run_one: Callable, checks: Checks, warm: bool,
                  clock: HostClock) -> Tuple[List[float], List[float]]:
    """Whole passes until ``seconds`` have elapsed (at least one).
    Returns each pass's scaled time, the sum of its requests', and the
    scaled latency (ms) of every request that returned.  Results are
    checked after the pass."""
    pass_s: List[float] = []
    request_ms: List[float] = []
    t_end = time.perf_counter() + seconds
    while not pass_s or time.perf_counter() < t_end:
        order = next(orders)
        outcomes, times_ms = _run_pass(order, run_one, clock)
        pass_s.append(sum(times_ms) / 1e3)
        request_ms += [ms for outcome, ms in zip(outcomes, times_ms)
                       if not isinstance(outcome, Exception)]
        for exp, outcome in zip(order, outcomes):
            checks.outcome(exp, outcome, warm)
    return pass_s, request_ms


def _traced_pass(order: List[str], run_one: Callable, checks: Checks,
                 warm: bool, run_s: float, clock: HostClock):
    """One pass under span wrappers and a HostScope.  Returns its layer
    rows (s), its wall (s), its counts, its scaled wall (s) and the
    recorded spans."""
    from repro.exec import execute
    from repro.obs.hostscope import HostScope, use_hostscope

    scope = HostScope()
    recorder = SpanRecorder(scope)
    traced_execute = recorder.wrap("exec.execute", execute)
    with use_hostscope(scope), patched(recorder):
        root = recorder.begin("other")
        outcomes, _ = _run_pass(order,
                                lambda exp: run_one(exp, traced_execute))
        recorder.end(root)
    span = recorder.spans[root]
    wall_s = span.end - span.start
    scaled_s = clock.scale(wall_s)
    for exp, outcome in zip(order, outcomes):
        checks.outcome(exp, outcome, warm)
    reports = [o[1] for o in outcomes if not isinstance(o, Exception)]
    counts = {
        "apps.problem_builds": recorder.counts["apps.problem_build"],
        "apps.fem_mesh_builds": recorder.counts["apps.fem_mesh_builds"],
        "perfmodel.runs": recorder.counts["perfmodel.run"],
        "machine.builds": recorder.counts["machine.build"],
        "sim.events": scope.events,
        "sim.processes": scope.processes,
        "sim.heap_max_depth": scope.max_depth,
        "sim.mcycles_per_s": scope.sim_cycles / 1e6 / run_s,
        **_exec_counts([(r.computed, r.cache_hits, r.cache_misses)
                        for r in reports]),
    }
    return (recorder.layer_seconds(), wall_s, counts, scaled_s,
            [s.to_dict() for s in recorder.spans])


def _exec_counts(reports: List[Tuple[int, int, int]]) -> Dict[str, float]:
    """Fabric counts summed over ``(computed, hits, misses)`` reports."""
    computed = sum(r[0] for r in reports)
    hits = sum(r[1] for r in reports)
    lookups = hits + sum(r[2] for r in reports)
    return {"exec.units_computed": computed, "exec.cache_hits": hits,
            "exec.cache_hit_rate": hits / lookups if lookups else 0.0}


def run_inprocess(workload: str, seed: int, seconds: float, trace: bool,
                  work: Path) -> Outcome:
    # execute() imports repro.obs on its first call; without this the
    # first timed request pays for it, and which experiment runs first
    # depends on the seed.  setup_s counts the import.
    import repro.obs  # noqa: F401
    from repro.core.config import spp1000
    from repro.exec import ResultCache, execute

    config = spp1000(n_hypernodes=HYPERNODES)
    checks = Checks(load_golden())
    clock = HostClock()
    detail: Dict = {"reference_s": clock.samples}
    cache = None
    warm = workload == "warm"
    if warm:
        # set-up: one jobs=2 fill of a fresh cache (the pool's spawn,
        # queue and return run only here)
        cache = ResultCache(str(work / "cache"))
        jobs = min(2, os.cpu_count() or 1)
        outcomes, times_ms = _run_pass(
            list(ALL), lambda exp: execute(exp, config, jobs=jobs, quick=True,
                                           cache=cache), clock)
        setup_s = sum(times_ms) / 1e3
        for exp, outcome in zip(ALL, outcomes):
            checks.outcome(exp, outcome)
        detail["setup_fill"] = {
            exp: {"computed": o[1].computed, "host_timing": o[1].host_timing}
            for exp, o in zip(ALL, outcomes) if not isinstance(o, Exception)}
        experiments = ALL
    else:
        experiments = DES if workload == "des" else MODEL
        setup_s = None if trace else setup_probe_s(experiments, clock)

    def run_one(exp, execute=execute):
        return execute(exp, config, jobs=1, quick=True, cache=cache)

    orders = pass_orders(seed, experiments)
    pass_s, request_ms = _timed_passes(orders, seconds, run_one, checks, warm,
                                       clock)
    detail["pass_s"] = pass_s
    if not trace:
        return Outcome(_e2e(setup_s, pass_s, request_ms, checks), checks,
                       detail)

    run_s = statistics.median(pass_s)
    rows, wall_s, counts, scaled_s, spans = _traced_pass(
        next(orders), run_one, checks, warm, run_s, clock)
    detail.update(layers_s=rows, trace_wall_s=wall_s, spans=spans)
    return Outcome(_layers(rows, wall_s, counts, scaled_s / run_s - 1),
                   checks, detail)


# -- service ------------------------------------------------------------------

_LISTENING = re.compile(r"listening on \S+:(\d+)")


class Server:
    """A ``repro serve`` subprocess with its own cache directory.

    The token bucket is raised far above this load so it never refuses a
    submit; ``startup_s`` is spawn to the "listening" line.
    """

    def __init__(self, cache_dir: Path):
        env = dict(os.environ)
        env["PYTHONPATH"] = os.pathsep.join(
            p for p in (str(SRC), env.get("PYTHONPATH")) if p)
        t0 = time.perf_counter()
        self.proc = subprocess.Popen(
            [sys.executable, "-m", "repro", "serve", "--port", "0",
             "--workers", "2", "--cache-dir", str(cache_dir),
             "--rate", "1000", "--burst", "1000"],
            stdout=subprocess.PIPE, text=True, env=env, cwd=ROOT)
        try:
            ready, _, _ = select.select([self.proc.stdout], [], [], 120)
            line = self.proc.stdout.readline() if ready else ""
            match = _LISTENING.search(line)
            if match is None:
                raise RuntimeError(f"repro serve did not start: {line!r}")
        except BaseException:
            self.stop()
            raise
        self.startup_s = time.perf_counter() - t0
        self.port = int(match.group(1))

    def stop(self) -> None:
        """SIGINT drains the server; wait for it to exit."""
        if self.proc.poll() is None:
            self.proc.send_signal(signal.SIGINT)
        try:
            self.proc.communicate(timeout=60)
        except subprocess.TimeoutExpired:
            self.proc.kill()
            self.proc.communicate()


@dataclass
class Job:
    phase: str
    stretch: int
    experiment: str
    latency_s: float
    queue_s: float
    run_s: float
    execution: Dict


def _client(port: int, specs: ClientSpecs, golden: Dict[str, str],
            recorder: Optional[SpanRecorder], barrier: threading.Barrier):
    """One closed-loop client: each call waits for its result before the
    next submit, and each stretch ends at ``barrier``.  Returns its
    jobs, checks and wall time."""
    from repro.sdk import Client, ServerError

    checks = Checks(golden)
    jobs: List[Job] = []
    t_start = time.perf_counter()
    root = recorder.begin("other") if recorder is not None else None
    try:
        with Client("127.0.0.1", port) as client:
            for stretch, (phase, items) in enumerate(specs.stretches()):
                for exp, job_seed in items:
                    t0 = time.perf_counter()
                    try:
                        res = client.submit(exp, quick=True, seed=job_seed,
                                            hypernodes=HYPERNODES).result()
                    except (ServerError, OSError) as exc:
                        checks.fail(f"{exp} seed {job_seed}: "
                                    f"{type(exc).__name__}: {exc}")
                        continue
                    t1 = time.perf_counter()
                    server = {s.get("name"): s["t1"] - s["t0"]
                              for s in res.host_spans}
                    job = Job(phase, stretch, exp, t1 - t0,
                              server.get("queued", 0.0),
                              server.get("run", 0.0), res.execution)
                    jobs.append(job)
                    if recorder is not None:
                        i = recorder.record("sdk.transport", t0, t1, root)
                        recorder.record("server.queue", t0,
                                        t0 + job.queue_s, i)
                        recorder.record("server.run", t0, t0 + job.run_s, i)
                    checks.result(exp, res.data,
                                  res.execution.get("computed"),
                                  warm=phase == "warm")
                barrier.wait()
    except BaseException:
        barrier.abort()  # release the other clients instead of hanging
        raise
    if recorder is not None:
        recorder.end(root)
    return jobs, checks, time.perf_counter() - t_start


def _mix(port: int, seed: int, mix: int, golden: Dict[str, str],
         n_clients: int, clock: HostClock, traced: bool):
    """One service mix: ``n_clients`` concurrent closed-loop clients.

    A stretch ends when every client has finished it.  The server is
    idle then, and the host reference is sampled; each stretch's wall
    time, and each of its jobs' latencies, is scaled by the samples at
    its two ends."""
    specs = service_specs(seed, n_clients, mix)
    recorders = [SpanRecorder() if traced else None for _ in specs]
    stretches: List[Tuple[float, float]] = []  # (wall, scaled)
    start = [time.perf_counter()]

    def end_stretch():
        wall_s = time.perf_counter() - start[0]
        stretches.append((wall_s, clock.scale(wall_s)))
        start[0] = time.perf_counter()

    barrier = threading.Barrier(n_clients, action=end_stretch)
    with ThreadPoolExecutor(max_workers=n_clients) as pool:
        futures = [pool.submit(_client, port, s, golden, r, barrier)
                   for s, r in zip(specs, recorders)]
        for future in futures:  # the client that failed, not one it released
            error = future.exception()
            if error and not isinstance(error, threading.BrokenBarrierError):
                raise error
        results = [f.result() for f in futures]
    n_cold = len(specs[0].cold)
    cold_s = sum(scaled for (_, scaled), (phase, _) in
                 zip(stretches, specs[0].stretches()) if phase == "cold")
    return {"scaled_s": sum(scaled for _, scaled in stretches),
            "scale": [scaled / wall for wall, scaled in stretches],
            "jobs": [job for r in results for job in r[0]],
            "checks": [r[1] for r in results],
            "client_wall_s": [r[2] for r in results],
            "cold_jobs_per_s": n_cold * len(specs) / cold_s,
            "recorders": recorders}


def _latency_summary(values: List[float], p: int) -> Dict:
    """Count, median and ``p``-th percentile of latencies (ms); None
    where there are too few samples."""
    return {"n": len(values),
            "p50": statistics.median(values) if values else None,
            f"p{p}": (statistics.quantiles(values, n=100)[p - 1]
                      if len(values) > 1 else None)}


def run_service(seed: int, seconds: float, trace: bool, work: Path
                ) -> Outcome:
    golden = load_golden()
    checks = Checks(golden)
    # load from one process uses no more client threads than CPUs
    n_clients = max(1, min(2, os.cpu_count() or 1))
    clock = HostClock()
    mixes = []
    traced = None
    startups = []
    server = None
    try:
        for i in range(1 if trace else SETUP_REPEATS):
            if server is not None:
                server.stop()
            server = Server(work / f"server-cache-{i}")
            startups.append(clock.scale(server.startup_s))
        t_end = time.perf_counter() + seconds
        while not mixes or time.perf_counter() < t_end:
            mixes.append(_mix(server.port, seed, len(mixes), golden,
                              n_clients, clock, traced=False))
        if trace:
            traced = _mix(server.port, seed, len(mixes), golden, n_clients,
                          clock, traced=True)
    finally:
        if server is not None:
            server.stop()
    for mix in mixes + ([traced] if traced else []):
        for part in mix["checks"]:
            checks.merge(part)

    cold = [j.latency_s * 1e3 * m["scale"][j.stretch] for m in mixes
            for j in m["jobs"] if j.phase == "cold"]
    warm = [j.latency_s * 1e3 * m["scale"][j.stretch] for m in mixes
            for j in m["jobs"] if j.phase == "warm"]
    pass_s = [m["scaled_s"] for m in mixes]
    detail = {
        "pass_s": pass_s, "clients": n_clients, "server_startup_s": startups,
        "reference_s": clock.samples,
        "latency_ms": {"cold": _latency_summary(cold, 80),
                       "warm": _latency_summary(warm, 95)},
        "cold_jobs_per_s": statistics.median(
            m["cold_jobs_per_s"] for m in mixes),
    }
    if not trace:
        return Outcome(_e2e(statistics.median(startups), pass_s, cold + warm,
                            checks), checks, detail)

    rows: Dict[str, float] = {}
    for recorder in traced["recorders"]:
        for row, s in recorder.layer_seconds().items():
            rows[row] = rows.get(row, 0.0) + s
    # clients run concurrently: the traced wall is the sum of client walls
    wall_s = sum(traced["client_wall_s"])
    counts = _exec_counts([(j.execution.get("computed", 0),
                            j.execution.get("cache_hits", 0),
                            j.execution.get("cache_misses", 0))
                           for j in traced["jobs"]])
    overhead = traced["scaled_s"] / statistics.median(pass_s) - 1
    detail.update(layers_s=rows, trace_wall_s=wall_s)
    return Outcome(_layers(rows, wall_s, counts, overhead), checks, detail)


def run_workload(workload: str, seed: int, seconds: float, trace: bool,
                 work: Path) -> Outcome:
    if workload == "service":
        return run_service(seed, seconds, trace, work)
    return run_inprocess(workload, seed, seconds, trace, work)

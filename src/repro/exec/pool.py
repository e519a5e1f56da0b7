"""The worker pool: serial or multi-process execution of work units.

``--jobs 1`` (the default) computes units in the calling process, in
plan order, under whatever ambient contexts (tracer, fault plan) the
caller installed — byte-for-byte the legacy serial behaviour.

``--jobs N`` fans units out to ``N`` **supervised** worker processes
through one task queue, one unit per idle worker.  Every task carries
its unit's machine configuration, the run's fault plan and the unit's
chaos faults, so ``--faults`` runs stay bit-identical to serial (unit
runners are pure functions of their parameters, the machine
configuration, and that plan; every RNG they use is seeded locally, so
no global generator is reseeded) and one worker can serve units of any
experiment and any configuration.  A worker resolves each unit's runner
through the experiment table, importing the experiment's module on
first use, under ``fork`` and ``spawn`` alike.  Results merge into plan
order regardless of completion order, so output is deterministic.

Worker lifetime: a pool that is not opened starts its workers in each
parallel :meth:`WorkerPool.map_units` call and stops them before the
call returns.  An opened pool (``with WorkerPool(n) as pool:``) starts
them on first use, keeps them until :meth:`WorkerPool.close`, and
computes every unit in them, even at ``n == 1``: the job server keeps
one such worker per job slot, so concurrent jobs run on separate CPUs.
Any exception out of a call stops the workers, so the next call starts
clean.  A forked worker holds none of its parent's sockets, ignores
SIGINT (its supervisor decides when it stops), and exits by itself
once its supervisor is gone.

On either path each finished unit goes to the caller's ``on_complete``
hook the moment it arrives, so the caller can store it before the
sweep ends: a killed or cancelled sweep keeps every unit it finished.

Host-level fault tolerance (see :mod:`repro.exec.resilience`):

* **Crash containment** — a unit whose worker dies is retried with
  bounded exponential backoff (``ResiliencePolicy.max_retries`` pool
  attempts), in a replacement worker, then once in-process; only when
  every attempt fails is it *quarantined* and reported through
  :class:`~repro.exec.resilience.UnitExecutionError` — after the rest
  of the sweep has drained, with the original traceback, never a pool
  internals one.
* **Hung-worker detection** — workers heartbeat the start of every
  unit; with ``ResiliencePolicy.unit_timeout_s`` set, a worker that
  neither finishes nor fails in time is terminated, replaced, and its
  unit retried.
* **Graceful degradation** — when the pool keeps dying (replacement
  budget exhausted, workers stalled, pool fails to start) the remaining
  units are computed serially in this process, so a broken host never
  sinks a sweep that serial execution could finish.
* **Chaos injection** — a resolved :class:`~repro.exec.chaos.ChaosPlan`
  spec makes workers kill themselves, stall, or drop results at
  scripted units, deterministically, to prove all of the above in CI.

The supervisor waits on the result queue's pipe and the workers'
process sentinels, at most ``_TICK_S`` at a time, so it reads a result
as soon as it is written.

Host-time accounting: every computed unit gets a timing record in
``PoolStats.unit_timings`` splitting its wall time into ``run_s`` (the
simulation itself), ``queue_s`` (submit-to-start wait for a worker)
and ``return_s`` (result serialisation + round-trip back to the
caller).  Workers stamp ``time.monotonic()`` — comparable across
processes on Linux (CLOCK_MONOTONIC is system-wide), unlike
``perf_counter`` which may not be.  Differences are clamped at zero in
case a platform breaks that assumption.
"""

from __future__ import annotations

import os
import sys
import time
import traceback
from collections import deque
from contextlib import contextmanager, nullcontext
from typing import Callable, Dict, List, Optional

from .events import make_event
from .resilience import (
    ResiliencePolicy,
    ResilienceStats,
    UnitExecutionError,
    UnitFailure,
)
from .units import WorkUnit, run_unit

__all__ = ["WorkerPool", "PoolStats"]

#: exit code of a chaos-scripted worker kill (distinguishable in logs)
_CHAOS_EXIT = 43

#: longest the supervisor waits for a result or a worker exit before it
#: checks timeouts and backoffs again, host seconds
_TICK_S = 0.02

#: how often an idle worker checks that its supervisor still lives,
#: host seconds
_ORPHAN_CHECK_S = 1.0

#: longest a pool waits for another thread's import to finish before it
#: computes in-process instead of forking workers, host seconds
_IMPORT_WAIT_S = 2.0


class PoolStats:
    """Accounting for one :meth:`WorkerPool.map_units` call."""

    def __init__(self, jobs: int):
        self.jobs = jobs
        self.executed = 0            #: units computed (anywhere)
        self.in_workers = 0          #: units computed in worker processes
        self.retried_in_process = 0  #: worker failures retried serially
        #: seconds spent starting worker processes in this call
        self.spawn_s = 0.0
        #: one record per computed unit: ``{key, where, run_s, queue_s,
        #: return_s, overhead_s}`` (see module docstring)
        self.unit_timings: List[Dict] = []
        #: retry/timeout/quarantine/chaos counters for this call
        self.resilience = ResilienceStats()

    def to_dict(self) -> Dict[str, object]:
        out: Dict[str, object] = {
            "jobs": self.jobs, "executed": self.executed,
            "in_workers": self.in_workers,
            "retried_in_process": self.retried_in_process,
            "spawn_s": round(self.spawn_s, 6)}
        if self.resilience.any():
            out["resilience"] = self.resilience.to_dict()
        return out


# -- worker-process side ----------------------------------------------------

class _ChaosDropReturn(Exception):
    """Chaos: the unit computed fine but its result was dropped on the
    return path (a lost pipe write); retried like any worker failure."""


def _worker_main(task_q, result_q, supervisor_pid: int) -> None:
    """One worker process: compute tasks from ``task_q`` until the
    ``None`` sentinel, or until its supervisor is gone.

    Every message is written to ``result_q`` (a SimpleQueue) *in the
    worker's own thread*, so a ``start`` heartbeat is on the wire
    before the unit computes — even a chaos ``kill_worker`` that
    ``os._exit``-s mid-unit leaves the supervisor knowing exactly which
    unit died where.
    """
    import queue
    import signal

    # a terminal's ^C reaches the whole process group; the supervisor
    # decides when its workers stop, and its SIGTERM must stop one even
    # when the parent, like an asyncio server, handles that signal
    signal.signal(signal.SIGINT, signal.SIG_IGN)
    signal.signal(signal.SIGTERM, signal.SIG_DFL)
    if os.name == "posix":
        _release_inherited_sockets()
    pid = os.getpid()
    while True:
        try:
            task = task_q.get(timeout=_ORPHAN_CHECK_S)
        except queue.Empty:
            if os.getppid() != supervisor_pid:
                return  # the supervisor is gone: nothing waits for us
            continue
        if task is None:
            return
        (experiment_id, key, params, attempt, config, fault_plan,
         faults) = task
        result_q.put(("start", pid, key, attempt))
        fired: List[str] = []  # chaos kinds that actually fired
        try:
            for fault in faults:
                if fault["kind"] == "kill_worker":
                    # die hard, like an OOM kill: no cleanup, no goodbye
                    os._exit(_CHAOS_EXIT)
                elif fault["kind"] == "delay_unit":
                    fired.append("delay_unit")
                    time.sleep(fault["seconds"])
            ctx = (_faults_ctx(fault_plan) if fault_plan is not None
                   else nullcontext())
            t0 = time.monotonic()
            with ctx:
                value = run_unit(experiment_id, params, config)
            t1 = time.monotonic()
            if any(f["kind"] == "drop_return" for f in faults):
                fired.append("drop_return")
                raise _ChaosDropReturn(
                    f"chaos: result of unit {key!r} dropped on the "
                    "return path")
            result_q.put(("done", pid, key, attempt, value, t0, t1,
                          fired))
        except BaseException as exc:
            result_q.put(("fail", pid, key, attempt, repr(exc),
                          traceback.format_exc(), fired))


def _release_inherited_sockets() -> None:
    """Point every socket a forked worker inherited, stdio aside, at
    /dev/null, so the worker holds none of its parent's sockets.

    A worker forked from a server would otherwise hold the server's
    listening socket and client connections for its whole life, and a
    connection the server closes would send no FIN.  Duplicating
    /dev/null over a descriptor, instead of closing it, keeps its number
    taken: an inherited object that still owns the number can never
    close a file this worker opens later.  The queues' pipes are not
    sockets, and stay open.
    """
    import stat

    fd_dir = "/proc/self/fd" if os.path.isdir("/proc/self/fd") \
        else "/dev/fd"
    devnull = os.open(os.devnull, os.O_RDWR)
    try:
        for fd in map(int, os.listdir(fd_dir)):
            try:
                is_socket = stat.S_ISSOCK(os.fstat(fd).st_mode)
            except OSError:
                continue  # the listing's own descriptor, closed by now
            if fd > 2 and is_socket:
                os.dup2(devnull, fd)
    finally:
        os.close(devnull)


# -- caller side ------------------------------------------------------------

def _importing() -> bool:
    """Whether some module's body is running (an import in progress)."""
    return any(getattr(getattr(module, "__spec__", None), "_initializing",
                       False)
               for module in tuple(sys.modules.values()))


@contextmanager
def _between_imports():
    """Hold the global import lock, taken when no module body runs.

    A child forked while another thread runs a module's body inherits
    that module half-initialised, its lock held by a thread the child
    does not have, so the child's first import of it would never
    return.  No import can begin while this lock is held, so wait for
    those in progress to finish, then start workers under it.  One still
    running after ``_IMPORT_WAIT_S`` raises :class:`_PoolCollapsed`:
    the call then computes in-process instead of forking.  Holding the
    lock also keeps two threads from starting workers at once, so
    neither child inherits the other's half-set-up process pipes.
    """
    import _imp

    deadline = time.monotonic() + _IMPORT_WAIT_S
    _imp.acquire_lock()
    while _importing():
        _imp.release_lock()
        if time.monotonic() >= deadline:
            raise _PoolCollapsed("another thread's import did not finish "
                                 f"within {_IMPORT_WAIT_S}s")
        time.sleep(0.001)
        _imp.acquire_lock()
    try:
        yield
    finally:
        _imp.release_lock()


class _UnitTask:
    """Supervisor-side state of one unit's journey through the pool."""

    __slots__ = ("unit", "attempt", "submitted_t", "exhausted_error",
                 "exhausted_tb")

    def __init__(self, unit: WorkUnit):
        self.unit = unit
        self.attempt = 0
        self.submitted_t = 0.0
        self.exhausted_error: Optional[str] = None
        self.exhausted_tb: str = ""


class WorkerPool:
    """Executes work units with ``jobs`` worker processes (1 = serial).

    Opened (``with WorkerPool(n) as pool:``, or :meth:`open`), the pool
    keeps its workers from their first use until :meth:`close`, and
    computes every unit in them, even at ``jobs == 1``.
    """

    def __init__(self, jobs: int = 1,
                 policy: Optional[ResiliencePolicy] = None):
        if jobs < 1:
            raise ValueError(f"jobs must be >= 1, got {jobs}")
        self.jobs = jobs
        self.policy = policy if policy is not None else ResiliencePolicy()
        self._opened = False
        # the workers' processes and queues, while they run
        self._workers: Dict[int, object] = {}  # pid -> process
        self._task_q = None
        self._result_q = None

    def open(self) -> "WorkerPool":
        """Keep workers across calls; they start on first use."""
        self._opened = True
        return self

    def close(self) -> None:
        """Stop the kept workers; the pool is no longer opened."""
        self._opened = False
        self._drop_workers()

    def __enter__(self) -> "WorkerPool":
        return self.open()

    def __exit__(self, *exc) -> None:
        self.close()

    def _drop_workers(self, *, kill: bool = False) -> None:
        """Stop the workers and discard their queues: the ``None``
        sentinel for idle workers, SIGTERM for all when ``kill``; never
        let cleanup mask the in-flight exception."""
        workers, self._workers = self._workers, {}
        task_q, result_q = self._task_q, self._result_q
        self._task_q = self._result_q = None
        if task_q is None:
            return
        try:
            for proc in workers.values():
                if kill:
                    proc.terminate()
                else:
                    task_q.put(None)
            for proc in workers.values():
                proc.join(timeout=5.0)
                if proc.is_alive():  # pragma: no cover - last resort
                    proc.kill()
                    proc.join(timeout=1.0)
            task_q.close()
            task_q.join_thread()
            result_q.close()
        except Exception:  # pragma: no cover - cleanup must not mask
            pass

    def map_units(self, units: List[WorkUnit], config, *,
                  fault_plan=None, stats: Optional[PoolStats] = None,
                  on_progress: Optional[Callable[[WorkUnit, Dict],
                                                 None]] = None,
                  on_event: Optional[Callable[[Dict], None]] = None,
                  on_complete: Optional[Callable[[WorkUnit, object],
                                                 None]] = None,
                  chaos_spec: Optional[Dict[str, List[Dict]]] = None,
                  ) -> Dict[str, object]:
        """Compute every unit; returns ``{unit.key: value}`` in plan order.

        ``on_complete(unit, value)`` fires once per completed unit, as
        it completes — out of plan order under ``--jobs N`` — on every
        path (serial, worker drain, serial fallback); it is the hook
        that stores finished units (cache and journal).
        ``on_progress(unit, timing)`` fires right after it with that
        unit's host-timing record; it is the live-telemetry hook and
        must not mutate results.  ``on_event`` receives resilience
        telemetry records (``retry``, ``hung_worker``, ``quarantine``,
        ``serial_fallback``).

        Units that exhaust every attempt (see
        :class:`~repro.exec.resilience.ResiliencePolicy`) are
        quarantined: the rest of the sweep completes first — and the
        hooks fire for it — then :class:`UnitExecutionError` is raised
        naming each poisoned unit with its original traceback.  Any
        exception out of this call stops the pool's workers.
        """
        stats = stats if stats is not None else PoolStats(self.jobs)
        chaos_spec = chaos_spec or {}
        try:
            if units and (self._opened or
                          (self.jobs > 1 and len(units) > 1)):
                values = self._run_parallel(units, config, fault_plan,
                                            stats, on_progress, on_event,
                                            on_complete, chaos_spec)
            else:
                values = self._run_serial(units, config, fault_plan, stats,
                                          on_progress, on_event,
                                          on_complete, chaos_spec)
            ordered = {u.key: values[u.key] for u in units
                       if u.key in values}
            if stats.resilience.quarantined:
                raise self._quarantine_error(units, stats)
            return ordered
        except BaseException:
            self._drop_workers(kill=True)
            raise

    def _quarantine_error(self, units, stats: PoolStats):
        failures = stats.resilience.quarantined
        experiment_id = units[0].experiment_id if units else "?"
        error = UnitExecutionError(experiment_id, failures,
                                   completed=stats.executed)
        # chain the real exception when an in-process attempt kept it
        for failure in failures:
            if failure.exception is not None:
                error.__cause__ = failure.exception
                break
        return error

    # -- serial path ----------------------------------------------------

    def _run_serial(self, units, config, fault_plan, stats,
                    on_progress=None, on_event=None, on_complete=None,
                    chaos_spec=None) -> Dict[str, object]:
        ctx = (nullcontext() if fault_plan is None
               else _faults_ctx(fault_plan))
        chaos_spec = chaos_spec or {}
        values: Dict[str, object] = {}
        with ctx:
            for unit in units:
                outcome = self._attempt_in_process(
                    unit, config, stats, chaos_spec,
                    max_attempts=self.policy.pool_attempts,
                    on_event=on_event, where="local")
                if isinstance(outcome, UnitFailure):
                    stats.resilience.quarantined.append(outcome)
                    if on_event is not None:
                        on_event(make_event(
                            "quarantine", key=unit.key,
                            attempts=outcome.attempts,
                            error=outcome.error))
                    continue
                value, timing = outcome
                values[unit.key] = value
                stats.executed += 1
                stats.unit_timings.append(timing)
                if on_complete is not None:
                    on_complete(unit, value)
                if on_progress is not None:
                    on_progress(unit, timing)
        return values

    def _attempt_in_process(self, unit, config, stats, chaos_spec, *,
                            max_attempts: int, on_event=None,
                            first_attempt: int = 1, prior_error: str = "",
                            where: str = "local"):
        """Try one unit in this process, honouring retries and chaos.

        Returns ``(value, timing)`` on success or a :class:`UnitFailure`
        once every attempt is spent.  ``KeyboardInterrupt`` always
        propagates immediately — a user's ^C is never "retried".
        """
        policy = self.policy
        last_exc: Optional[BaseException] = None
        attempt = first_attempt
        while attempt <= max_attempts:
            backoff = policy.backoff_for(attempt)
            if backoff > 0:
                time.sleep(backoff)
            faults = [f for f in chaos_spec.get(unit.key, ())
                      if attempt in f["attempts"]
                      and f["kind"] in ("delay_unit", "drop_return")]
            try:
                for fault in faults:
                    if fault["kind"] == "delay_unit":
                        stats.resilience.count_chaos("delay_unit")
                        time.sleep(fault["seconds"])
                t0 = time.monotonic()
                value = run_unit(unit.experiment_id, unit.params, config)
                t1 = time.monotonic()
                if any(f["kind"] == "drop_return" for f in faults):
                    stats.resilience.count_chaos("drop_return")
                    raise _ChaosDropReturn(
                        f"chaos: result of unit {unit.key!r} dropped on "
                        "the return path")
                timing = {"key": unit.key, "where": where,
                          "run_s": round(t1 - t0, 6),
                          "queue_s": 0.0, "return_s": 0.0,
                          "overhead_s": 0.0}
                return value, timing
            except KeyboardInterrupt:
                raise
            except Exception as exc:
                last_exc = exc
                if attempt < max_attempts:
                    stats.resilience.retries += 1
                    if on_event is not None:
                        on_event(make_event(
                            "retry", key=unit.key,
                            attempt=attempt + 1,
                            max_attempts=max_attempts,
                            where="local", error=repr(exc),
                            backoff_s=policy.backoff_for(attempt + 1)))
                attempt += 1
        error = repr(last_exc) if last_exc is not None else prior_error
        tb = ("".join(traceback.format_exception(
                  type(last_exc), last_exc, last_exc.__traceback__))
              if last_exc is not None else "")
        return UnitFailure(
            key=unit.key, experiment_id=unit.experiment_id,
            attempts=max_attempts, error=error, traceback=tb,
            exception=last_exc)

    # -- parallel path --------------------------------------------------

    def _run_parallel(self, units, config, fault_plan, stats,
                      on_progress=None, on_event=None, on_complete=None,
                      chaos_spec=None) -> Dict[str, object]:
        chaos_spec = chaos_spec or {}
        policy = self.policy
        values: Dict[str, object] = {}
        exhausted: Dict[str, _UnitTask] = {}  # pool gave up; serial next
        unresolved: Dict[str, _UnitTask] = {}  # pool collapsed under them
        tasks = {u.key: _UnitTask(u) for u in units}

        try:
            self._supervise(units, tasks, config, fault_plan, stats,
                            values, exhausted, chaos_spec, on_progress,
                            on_event, on_complete)
        except Exception:
            # The pool itself failed to start or collapsed in a way the
            # supervisor could not contain; everything still missing
            # degrades to the serial path below.
            self._drop_workers(kill=True)
            for key, task in tasks.items():
                if key not in values and key not in exhausted:
                    unresolved[key] = task
        if not self._opened:
            self._drop_workers()

        # Units the pool never resolved (collapse/stall): full serial
        # treatment, retries included.
        for key, task in unresolved.items():
            if key in values:
                continue
            stats.retried_in_process += 1
            stats.resilience.serial_fallbacks += 1
            if on_event is not None:
                on_event(make_event("serial_fallback", key=key,
                                    reason="pool unavailable"))
            outcome = self._attempt_in_process(
                task.unit, config, stats, chaos_spec,
                max_attempts=policy.pool_attempts, on_event=on_event)
            self._accept_serial_outcome(task, outcome, stats, values,
                                        on_event, on_complete, on_progress)

        # Units that exhausted their pool attempts: one last in-process
        # chance — a unit that only fails inside workers still completes.
        for key, task in exhausted.items():
            if key in values:
                continue
            stats.retried_in_process += 1
            stats.resilience.retries += 1
            stats.resilience.serial_fallbacks += 1
            if on_event is not None:
                on_event(make_event(
                    "retry", key=key, attempt=task.attempt + 1,
                    max_attempts=policy.pool_attempts + 1,
                    where="local", error=task.exhausted_error,
                    backoff_s=0.0))
            outcome = self._attempt_in_process(
                task.unit, config, stats, chaos_spec,
                max_attempts=task.attempt + 1,
                first_attempt=task.attempt + 1,
                prior_error=task.exhausted_error or "", on_event=on_event)
            if isinstance(outcome, UnitFailure) and not outcome.traceback:
                # in-process attempt raised nothing new; report the
                # worker-side story
                outcome.error = task.exhausted_error or outcome.error
                outcome.traceback = task.exhausted_tb
            self._accept_serial_outcome(task, outcome, stats, values,
                                        on_event, on_complete, on_progress)
        return values

    def _accept_serial_outcome(self, task, outcome, stats, values,
                               on_event, on_complete, on_progress):
        if isinstance(outcome, UnitFailure):
            stats.resilience.quarantined.append(outcome)
            if on_event is not None:
                on_event(make_event(
                    "quarantine", key=task.unit.key,
                    attempts=outcome.attempts, error=outcome.error))
            return
        value, timing = outcome
        values[task.unit.key] = value
        stats.executed += 1
        stats.unit_timings.append(timing)
        if on_complete is not None:
            on_complete(task.unit, value)
        if on_progress is not None:
            on_progress(task.unit, timing)

    def _supervise(self, units, tasks, config, fault_plan, stats, values,
                   exhausted, chaos_spec, on_progress, on_event,
                   on_complete) -> None:
        """The supervisor loop: feed one unit per idle worker, wait on
        the result pipe and the worker sentinels, drain heartbeats and
        results, detect hangs and deaths, retry with backoff, replace
        workers.  Raises :class:`_PoolCollapsed` when the pool cannot
        make progress."""
        import multiprocessing as mp
        from multiprocessing.connection import wait

        policy = self.policy
        n_workers = min(self.jobs, len(units))
        budget = policy.replacement_budget(n_workers)
        context = mp.get_context("fork" if "fork" in
                                 mp.get_all_start_methods() else "spawn")
        if self._task_q is None:
            self._task_q = context.Queue()
            self._result_q = context.SimpleQueue()
        task_q, result_q = self._task_q, self._result_q
        workers = self._workers
        in_flight: Dict[int, Dict] = {}  # pid -> {key, attempt, seen_t}
        sent: set = set()  # keys on the task queue or in a worker
        pending = deque((u.key, 1, 0.0) for u in units)

        def spawn() -> None:
            with _between_imports():
                proc = context.Process(
                    target=_worker_main,
                    args=(task_q, result_q, os.getpid()), daemon=True)
                proc.start()
            workers[proc.pid] = proc

        def replace() -> None:
            if stats.resilience.workers_replaced >= budget:
                raise _PoolCollapsed("replacement budget exhausted")
            stats.resilience.workers_replaced += 1
            spawn()

        def fail_attempt(key: str, attempt: int, error: str, tb: str,
                         now: float) -> None:
            task = tasks[key]
            if attempt < policy.pool_attempts:
                stats.resilience.retries += 1
                backoff = policy.backoff_for(attempt + 1)
                if on_event is not None:
                    on_event(make_event(
                        "retry", key=key, attempt=attempt + 1,
                        max_attempts=policy.pool_attempts + 1,
                        where="worker", error=error,
                        backoff_s=round(backoff, 3)))
                pending.append((key, attempt + 1, now + backoff))
            else:
                task.exhausted_error = error
                task.exhausted_tb = tb
                exhausted[key] = task

        def outstanding() -> int:
            return len(tasks) - len(values) - len(exhausted)

        def feed() -> None:
            """Put due units on the task queue, one per idle worker."""
            now = time.monotonic()
            for _ in range(len(pending)):
                if len(sent) >= len(workers):
                    return
                key, attempt, not_before = pending.popleft()
                if not_before > now:
                    pending.append((key, attempt, not_before))  # backoff
                    continue
                task = tasks[key]
                task.attempt = attempt
                task.submitted_t = now
                unit = task.unit
                faults = [f for f in chaos_spec.get(key, ())
                          if attempt in f["attempts"]]
                task_q.put((unit.experiment_id, key, unit.params, attempt,
                            config, fault_plan, faults))
                sent.add(key)

        def drain() -> None:
            """Handle every message already on ``result_q``."""
            nonlocal last_activity
            while not result_q.empty():
                msg = result_q.get()
                recv_t = last_activity = time.monotonic()
                kind, pid, key, attempt = msg[:4]
                if kind == "start":
                    in_flight[pid] = {"key": key, "attempt": attempt,
                                      "seen_t": recv_t}
                    continue
                in_flight.pop(pid, None)
                sent.discard(key)
                for chaos_kind in msg[-1]:
                    stats.resilience.count_chaos(chaos_kind)
                if kind == "fail":
                    fail_attempt(key, attempt, msg[4], msg[5], recv_t)
                    feed()
                    continue
                _, _, _, _, value, t0, t1, _ = msg
                task = tasks[key]
                run_s = max(t1 - t0, 0.0)
                roundtrip = max(recv_t - task.submitted_t, 0.0)
                timing = {
                    "key": key, "where": "worker",
                    "run_s": round(run_s, 6),
                    "queue_s": round(max(t0 - task.submitted_t, 0.0), 6),
                    "return_s": round(max(recv_t - t1, 0.0), 6),
                    "overhead_s": round(max(roundtrip - run_s, 0.0), 6),
                }
                values[key] = value
                stats.executed += 1
                stats.in_workers += 1
                stats.unit_timings.append(timing)
                feed()  # the worker's next unit runs while the hooks do
                if on_complete is not None:
                    on_complete(task.unit, value)
                if on_progress is not None:
                    on_progress(task.unit, timing)

        t_spawn = time.monotonic()
        for pid in [pid for pid, proc in workers.items()
                    if not proc.is_alive()]:
            workers.pop(pid).join()  # died between calls, holding no unit
        while len(workers) < n_workers:
            spawn()
        stats.spawn_s = time.monotonic() - t_spawn
        last_activity = time.monotonic()
        while outstanding():
            feed()
            wait([result_q._reader,
                  *(proc.sentinel for proc in workers.values())],
                 timeout=_TICK_S)

            # 1. heartbeats and results
            drain()

            # 2. hung-worker detection: heartbeat said the unit
            # started, but no result within the timeout
            now = time.monotonic()
            hung: Dict[int, float] = {}  # pid -> seconds on its unit
            if policy.unit_timeout_s is not None:
                for pid, info in in_flight.items():
                    if now - info["seen_t"] > policy.unit_timeout_s:
                        hung[pid] = now - info["seen_t"]
                        workers[pid].terminate()

            # 3. dead workers, the hung ones included
            for pid in list(workers):
                proc = workers[pid]
                if pid not in hung and proc.is_alive():
                    continue
                workers.pop(pid)
                proc.join(timeout=5.0)
                # Everything the worker wrote before it died is on
                # result_q now.  Read it before deciding: a "start"
                # that landed after step 1 would otherwise leave its
                # unit in flight forever, never retried, and a result
                # written just before a timeout's SIGTERM still counts.
                drain()
                info = in_flight.pop(pid, None)
                if proc.exitcode == _CHAOS_EXIT:
                    stats.resilience.count_chaos("kill_worker")
                if info is not None:
                    sent.discard(info["key"])
                    if pid in hung:
                        elapsed = hung[pid]
                        stats.resilience.timeouts += 1
                        stats.resilience.hung_workers_replaced += 1
                        if on_event is not None:
                            on_event(make_event(
                                "hung_worker", key=info["key"], pid=pid,
                                elapsed_s=round(elapsed, 3),
                                timeout_s=policy.unit_timeout_s))
                        error = (f"timed out after {elapsed:.1f}s "
                                 f"(--unit-timeout "
                                 f"{policy.unit_timeout_s}s)")
                    else:
                        error = (f"worker (pid {pid}) died with exit code "
                                 f"{proc.exitcode} while computing unit "
                                 f"{info['key']!r}")
                    fail_attempt(info["key"], info["attempt"], error, "",
                                 time.monotonic())
                if outstanding():
                    replace()

            # 4. stall detection: units sent, none started, no traffic
            # at all — the queues are likely wedged
            if outstanding():
                if not workers:
                    raise _PoolCollapsed("no live workers remain")
                stall_after = max(30.0,
                                  2.0 * (policy.unit_timeout_s or 0.0))
                quiet = time.monotonic() - last_activity
                if not in_flight and quiet > stall_after:
                    raise _PoolCollapsed(
                        f"no worker activity for {quiet:.0f}s")


class _PoolCollapsed(Exception):
    """Internal: the pool cannot make progress; degrade to serial."""


def _faults_ctx(fault_plan):
    from ..faults import use_faults

    return use_faults(fault_plan)

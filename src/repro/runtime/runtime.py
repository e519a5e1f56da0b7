"""The thread runtime: CPSlib-style spawn / fork-join on the simulated machine.

A *thread body* is a generator function ``body(env, tid)`` that yields
machine operations through its :class:`ThreadEnv`.  The runtime places
threads on CPUs (:mod:`repro.runtime.scheduler`), charges the software
costs of thread creation, dispatch, and joining, and performs the actual
synchronisation through simulated memory — so a fork-join across two
hypernodes is more expensive than a local one for mechanistic reasons
(remote descriptor stores, remote join atomics, one-time cross-kernel
setup), exactly the effects Figure 2 of the paper measures.
"""

from __future__ import annotations

from contextlib import nullcontext
from typing import Dict, List, Optional

from ..machine import Machine, MemClass
from ..machine.address import Region
from .scheduler import Placement, assign, hypernodes_used, team_geometry

__all__ = ["ThreadEnv", "Runtime"]

_NULL_CTX = nullcontext()


def _host_region(sim, name: str):
    """Hostscope region context for pure-Python runtime bookkeeping that
    executes inside another process's slice; a shared null context when
    no profiler is installed (one attribute check + one None check)."""
    hs = sim.hostscope
    if hs is None:
        return _NULL_CTX
    return hs.region(name)


class ThreadEnv:
    """A thread's handle on the machine: all operations are CPU-bound.

    ``compute`` returns an event; every other operation returns a machine
    sub-operation (a generator the thread ``yield``s; see
    :mod:`repro.sim.process`).

    Every operation takes an optional ``cat`` — the wait-state category
    the elapsed simulated time is attributed to when a critical-path
    analyzer is installed (see :mod:`repro.obs.critscope`).  Defaults:
    ``compute`` for computation, ``memory`` for memory operations, and
    ``lock`` for bare spins (application-level spinning is contention).
    With no analyzer installed (``self.crit is None``) each operation
    pays exactly one ``is None`` check — the zero-cost contract.
    """

    def __init__(self, runtime: "Runtime", tid: int, cpu: int):
        self.runtime = runtime
        self.machine = runtime.machine
        self.sim = runtime.machine.sim
        self.tid = tid
        self.cpu = cpu
        self.hypernode = runtime.machine.topology.hypernode_of(cpu)
        self.crit = runtime.machine.critscope

    # -- time -----------------------------------------------------------
    @property
    def now(self) -> float:
        return self.sim.now

    def _record(self, ev, cat: str):
        """Attribute ``ev``'s elapsed simulated time to ``cat`` when it
        completes.  Never advances simulated time: the completion hook
        only reads the clock."""
        cr, tid, sim, t0 = self.crit, self.tid, self.sim, self.sim.now
        ev.callbacks.append(
            lambda _e: cr.segment(tid, t0, sim.now, cat))
        return ev

    def _timed(self, op, cat: str, addr: Optional[int] = None):
        """Sub-operation: run ``op`` and attribute its elapsed simulated
        time to ``cat`` when it ends, as a wait on ``addr`` if one is
        given.  The record is made in ``op``'s last slice: no event is
        added and simulated time is never advanced."""
        t0 = self.sim.now
        try:
            value = yield from op
        except Exception:
            self._close(t0, cat, addr)
            raise
        self._close(t0, cat, addr)
        return value

    def _close(self, t0: float, cat: str, addr: Optional[int]) -> None:
        if addr is None:
            self.crit.segment(self.tid, t0, self.sim.now, cat)
        else:
            self.crit.wait(self.tid, t0, self.sim.now, cat, addr)

    def compute(self, cycles: float, cat: str = "compute"):
        """Event: execute ``cycles`` of computation."""
        ev = self.machine.compute(self.cpu, cycles)
        if self.crit is not None:
            self._record(ev, cat)
        return ev

    def timestamp(self):
        """Sub-operation: read the clock (costs timer overhead); returns
        the time."""
        op = self.machine.timestamp(self.cpu)
        if self.crit is not None:
            return self._timed(op, "compute")
        return op

    # -- memory -----------------------------------------------------------
    def load(self, addr: int, cat: str = "memory"):
        op = self.machine.load(self.cpu, addr)
        if self.crit is not None:
            return self._timed(op, cat)
        return op

    def store(self, addr: int, value, cat: str = "memory"):
        cr = self.crit
        if cr is not None:
            # writer resolution is recorded at the store's *start*:
            # causally before any spinner the invalidation walk wakes
            cr.note_write(addr, self.tid, self.sim.now)
        op = self.machine.store(self.cpu, addr, value)
        if cr is not None:
            return self._timed(op, cat)
        return op

    def fetch_add(self, addr: int, delta=1, cat: str = "memory"):
        cr = self.crit
        if cr is not None:
            cr.note_write(addr, self.tid, self.sim.now)
        op = self.machine.fetch_add(self.cpu, addr, delta)
        if cr is not None:
            return self._timed(op, cat)
        return op

    def read_block(self, addr: int, nbytes: int, cat: str = "memory"):
        op = self.machine.read_block(self.cpu, addr, nbytes)
        if self.crit is not None:
            return self._timed(op, cat)
        return op

    def write_block(self, addr: int, nbytes: int, cat: str = "memory"):
        op = self.machine.write_block(self.cpu, addr, nbytes)
        if self.crit is not None:
            return self._timed(op, cat)
        return op

    def spin(self, addr: int, predicate, info: Optional[str], cat: str):
        """``info`` names what is awaited, for watchdog stall reports;
        ``cat`` is the critscope category the wait bills."""
        op = self.machine.spin_until(self.cpu, addr, predicate, info)
        if self.crit is not None:
            return self._timed(op, cat, addr)
        return op

    def alloc_private(self, size: int, label: str = "") -> Region:
        """Thread-private memory homed on this thread's functional unit."""
        loc = self.machine.topology.locate(self.cpu)
        return self.machine.alloc(size, MemClass.THREAD_PRIVATE,
                                  home_hypernode=loc.hypernode,
                                  home_fu=loc.fu, label=label)

    # -- structured parallelism -------------------------------------------
    def fork_join(self, n_threads: int, body,
                  placement: Placement = Placement.HIGH_LOCALITY):
        """Generator (use ``yield from``): spawn a team, run it, join it.

        The paper's *synchronous* thread class (§3.2): children join in
        a barrier and the parent resumes only after all have finished.
        Returns the list of the children's return values in tid order.
        """
        return self.runtime._fork_join(self, n_threads, body, placement)


class Runtime:
    """Owns thread bookkeeping and the per-hypernode sync-word pools."""

    def __init__(self, machine: Machine):
        self.machine = machine
        self.sim = machine.sim
        self.config = machine.config
        self._next_tid = 0
        # Per-hypernode pools for runtime synchronisation words; every word
        # gets its own cache line to avoid false sharing.
        self._sync_pools: Dict[int, Region] = {}
        self._sync_next: Dict[int, int] = {}
        #: hypernodes this "process" has already spun kernel structures up
        #: on; the first fork that touches a new one pays cross-node setup.
        self._touched_hypernodes = {0}

    # -- synchronisation words ---------------------------------------------
    def alloc_sync_word(self, home_hypernode: int = 0, initial=0) -> int:
        """A line-isolated shared word homed on ``home_hypernode``."""
        pool = self._sync_pools.get(home_hypernode)
        offset = self._sync_next.get(home_hypernode, 0)
        if pool is None or offset >= pool.size:
            pool = self.machine.alloc(
                16 * self.config.page_bytes, MemClass.NEAR_SHARED,
                home_hypernode=home_hypernode,
                label=f"sync-pool-hn{home_hypernode}")
            self._sync_pools[home_hypernode] = pool
            offset = 0
        self._sync_next[home_hypernode] = offset + self.config.line_bytes
        addr = pool.addr(offset)
        self.machine.poke(addr, initial)
        return addr

    # -- top-level entry -----------------------------------------------------
    def main_env(self, cpu: int = 0) -> ThreadEnv:
        env = ThreadEnv(self, self._next_tid, cpu)
        self._next_tid += 1
        return env

    def run(self, body, cpu: int = 0):
        """Run ``body(env)`` as the main thread; returns its result."""
        env = self.main_env(cpu)
        cr = self.machine.critscope
        if cr is not None:
            cr.thread_begin(env.tid, env.cpu, env.hypernode, self.sim.now)
        proc = self.sim.process(body(env), region="app")
        result = self.sim.run(until=proc)
        if cr is not None:
            cr.thread_end(env.tid, self.sim.now)
        return result

    # -- fork-join -------------------------------------------------------------
    def _fork_join(self, parent: ThreadEnv, n_threads: int, body,
                   placement: Placement):
        cfg = self.config
        machine = self.machine
        tracer = machine.tracer
        with _host_region(self.sim, "sched"):
            cpus = assign(cfg, n_threads, placement)
            target_hns = hypernodes_used(cfg, cpus)
            cr = machine.critscope
            if cr is not None:
                cr.team(parent.tid, n_threads, team_geometry(cfg, cpus),
                        placement.name)
            if tracer.enabled:
                tracer.begin(self.sim.now, "fork_join", "runtime",
                             pid=parent.hypernode, tid=parent.cpu,
                             args={"n_threads": n_threads,
                                   "placement": placement.name,
                                   "hypernodes": len(target_hns)})

        # One-time kernel-to-kernel setup for newly touched hypernodes
        # (the ~50 us step in Figure 2 when a second hypernode joins).
        for hn in target_hns:
            if hn not in self._touched_hypernodes:
                self._touched_hypernodes.add(hn)
                yield parent.compute(cfg.cross_node_setup_cycles,
                                     cat="forkjoin")

        with _host_region(self.sim, "sched"):
            join_count = self.alloc_sync_word(parent.hypernode)
            done_flag = self.alloc_sync_word(parent.hypernode)
            results: List = [None] * n_threads
        for tid_in_team, cpu in enumerate(cpus):
            child_hn = machine.topology.hypernode_of(cpu)
            spawn_cycles = cfg.spawn_local_cycles
            if child_hn != parent.hypernode:
                spawn_cycles += cfg.spawn_remote_extra_cycles
            yield parent.compute(spawn_cycles, cat="forkjoin")
            # The work descriptor lives on the child's hypernode: handing
            # work to a remote CPU pays a remote ownership transfer.
            with _host_region(self.sim, "sched"):
                desc = self.alloc_sync_word(child_hn)
            yield parent.store(desc, tid_in_team, cat="forkjoin")
            with _host_region(self.sim, "sched"):
                child_env = ThreadEnv(self, self._next_tid, cpu)
                self._next_tid += 1
                if cr is not None:
                    # the fork edge: the child's existence depends on
                    # this point of the parent's timeline
                    cr.thread_begin(child_env.tid, cpu, child_hn,
                                    self.sim.now, parent=parent.tid)
                if tracer.enabled:
                    tracer.instant(self.sim.now, "thread.spawn", "runtime",
                                   pid=child_hn, tid=cpu,
                                   args={"team_tid": tid_in_team})
                self.sim.process(self._child(
                    child_env, body, tid_in_team, desc, join_count,
                    done_flag, n_threads, results), region="app")

        yield parent.spin(done_flag, lambda v: v == 1,
                          info=f"join of {n_threads}-thread team",
                          cat="forkjoin")
        yield parent.compute(cfg.join_per_thread_cycles * n_threads,
                             cat="forkjoin")
        if tracer.enabled:
            tracer.end(self.sim.now, "fork_join", "runtime",
                       pid=parent.hypernode, tid=parent.cpu)
        return results

    def _child(self, env: ThreadEnv, body, tid_in_team: int, desc: int,
               join_count: int, done_flag: int, n_threads: int,
               results: List):
        tracer = self.machine.tracer
        # pick up the work descriptor
        yield env.load(desc, cat="forkjoin")
        if tracer.enabled:
            tracer.begin(self.sim.now, "thread", "runtime",
                         pid=env.hypernode, tid=env.cpu,
                         args={"team_tid": tid_in_team})
        result = yield from body(env, tid_in_team)
        results[tid_in_team] = result
        if tracer.enabled:
            tracer.end(self.sim.now, "thread", "runtime",
                       pid=env.hypernode, tid=env.cpu)
        old = yield env.fetch_add(join_count, 1, cat="forkjoin")
        if old == n_threads - 1:
            # last child releases the joining parent through the cache
            yield env.store(done_flag, 1, cat="forkjoin")
        if env.crit is not None:
            env.crit.thread_end(env.tid, self.sim.now)

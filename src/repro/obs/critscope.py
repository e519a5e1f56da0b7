"""Critical-path & wait-state analyzer (causal time decomposition).

The paper's central analyses (§4–§5) are wait-time stories: the per-thread
fork-join slope of Figure 2, the linear last-in/last-out barrier-release
term of §4.2, the message-passing knees of Figure 5, and the application
efficiency roll-off of Figures 6–8 all come down to *which waits bound the
run*.  :class:`CritScope` is the instrument that answers that question for
the simulated machine:

* every simulated cycle of every thread is classified into one of
  :data:`CATEGORIES` — compute, fork/join, barrier-arrive-wait,
  barrier-release, message-send, message-recv-wait, memory-stall, and
  idle (the unattributed remainder, so per-thread category cycles sum
  *exactly* to the thread's total simulated cycles);
* cross-thread dependencies are recorded as a graph: fork edges
  (parent → child at spawn time), and wait-resolution edges (the store /
  fetch&add that released a spinning waiter — barrier releases,
  fork-join joins, PVM mail-flag notifies);
* the **critical path** is extracted by walking that graph backwards from
  the last-finishing thread, attributing each span of the path to its
  category — the decomposition Coz-style causal profilers use;
* **what-if projections** estimate the run-time effect of speeding one
  category up by a factor ("if barrier release were 2× faster, total time
  −X%"), validated against actual re-runs with the corresponding
  :mod:`repro.core.config` cost parameters scaled
  (:func:`scaled_config`).

Zero-cost contract (same as the tracer, fault layer and memscope): with no
analyzer installed every emission point costs exactly one ``is None``
check, and an installed analyzer never advances simulated time — results
and final simulated clocks are bit-identical with the analyzer on or off
(asserted by tests).  Install via :func:`use_critscope`;
:class:`~repro.machine.system.Machine` adopts the ambient instance and
each machine gets its own :class:`CritRun` recorder (experiments that
build several machines — e.g. fig2's repeats — produce several runs; the
analysis picks the longest for the path and aggregates categories over
all of them).
"""

from __future__ import annotations

from bisect import bisect_right
from typing import Dict, List, Optional, Tuple

from ..core.ambient import Slot
from ..core.tables import Table

__all__ = ["CATEGORIES", "CritScope", "CritRun", "active_critscope",
           "use_critscope", "scaled_config", "WHAT_IF_PARAMS"]

SCHEMA_VERSION = 2

#: the wait-state taxonomy; ``idle`` is always the exact remainder
CATEGORIES = ("compute", "forkjoin", "barrier_wait", "barrier_release",
              "msg_send", "msg_recv", "memory", "idle")

#: one-character glyphs for the per-thread ASCII wait-state timeline
_GLYPHS = {"compute": "#", "forkjoin": "F", "barrier_wait": "b",
           "barrier_release": "B", "msg_send": "s",
           "msg_recv": "r", "memory": "m", "idle": "."}

#: category -> the MachineConfig cost knobs an actual re-run would scale
#: to realise the projected speedup (the validation protocol of
#: docs/critpath.md)
WHAT_IF_PARAMS = {
    "barrier_release": ("barrier_release_per_thread_cycles",
                        "remote_release_extra_cycles"),
    "barrier_wait": ("barrier_entry_cycles", "spin_wakeup_cycles"),
    "forkjoin": ("spawn_local_cycles", "spawn_remote_extra_cycles",
                 "cross_node_setup_cycles", "join_per_thread_cycles"),
    "msg_send": ("pvm_send_overhead_cycles",),
    "msg_recv": ("pvm_recv_overhead_cycles",),
}

_EPS = 1e-9


def scaled_config(config, category: str, factor: float):
    """``config`` with ``category``'s cost knobs divided by ``factor``.

    This is the re-run half of the what-if validation protocol: project
    with :meth:`CritScope.what_if`, then actually re-run under the scaled
    config and compare totals.
    """
    try:
        fields = WHAT_IF_PARAMS[category]
    except KeyError:
        known = ", ".join(sorted(WHAT_IF_PARAMS))
        raise KeyError(
            f"no config parameters map to category {category!r}; "
            f"scalable categories: {known}") from None
    if factor <= 0:
        raise ValueError(f"scale factor must be positive, got {factor}")
    return config.with_(**{f: getattr(config, f) / factor for f in fields})


class _ThreadRec:
    """Per-thread record: lifetime, attributed segments, fork parentage."""

    __slots__ = ("tid", "cpu", "hypernode", "start", "end", "segs",
                 "parent")

    def __init__(self, tid: int, cpu: int, hypernode: int, start: float,
                 parent: Optional[int]):
        self.tid = tid
        self.cpu = cpu
        self.hypernode = hypernode
        self.start = start
        self.end: Optional[float] = None
        #: [t0, t1, category, wait_addr|None, resolver (tid, t)|None]
        self.segs: List[list] = []
        self.parent = parent

    def close_time(self) -> float:
        if self.end is not None:
            return self.end
        return self.segs[-1][1] if self.segs else self.start


class CritRun:
    """Recorder for one machine's threads (one :class:`Machine` = one run).

    All methods are emission points on the simulation hot path: they only
    append to lists / update a dict, and never advance simulated time.
    """

    __slots__ = ("index", "threads", "_last_write", "teams")

    def __init__(self, index: int):
        self.index = index
        self.threads: Dict[int, _ThreadRec] = {}
        #: addr -> (writer tid, write start time); looked up when a wait
        #: completes to resolve who released it
        self._last_write: Dict[int, Tuple[int, float]] = {}
        #: fork teams: (parent tid, n_threads, {hn: threads}, placement)
        self.teams: List[Tuple[int, int, Dict[int, int], str]] = []

    # -- thread lifecycle ------------------------------------------------
    def thread_begin(self, tid: int, cpu: int, hypernode: int, t: float,
                     parent: Optional[int] = None) -> None:
        self.threads[tid] = _ThreadRec(tid, cpu, hypernode, t, parent)

    def thread_end(self, tid: int, t: float) -> None:
        rec = self.threads.get(tid)
        if rec is not None:
            rec.end = t

    def team(self, parent_tid: int, n_threads: int,
             geometry: Dict[int, int], placement: str) -> None:
        self.teams.append((parent_tid, n_threads, geometry, placement))

    # -- segments --------------------------------------------------------
    def segment(self, tid: int, t0: float, t1: float, cat: str) -> None:
        if t1 <= t0:
            return
        rec = self.threads.get(tid)
        if rec is not None:
            rec.segs.append([t0, t1, cat, None, None])

    def wait(self, tid: int, t0: float, t1: float, cat: str,
             addr: int) -> None:
        if t1 <= t0:
            return
        rec = self.threads.get(tid)
        if rec is not None:
            rec.segs.append([t0, t1, cat, addr, self._last_write.get(addr)])

    def note_write(self, addr: int, tid: int, t: float) -> None:
        """Record a write *start* — causally before any waiter it wakes."""
        self._last_write[addr] = (tid, t)

    # -- derived ---------------------------------------------------------
    @property
    def makespan(self) -> float:
        if not self.threads:
            return 0.0
        start = min(rec.start for rec in self.threads.values())
        end = max(rec.close_time() for rec in self.threads.values())
        return end - start


class CritScope:
    """Aggregating analyzer over one or more :class:`CritRun` recorders."""

    def __init__(self, config=None):
        self.config = config
        self.runs: List[CritRun] = []

    # -- wiring ----------------------------------------------------------
    def new_run(self, machine=None) -> CritRun:
        """A fresh per-machine recorder (called by ``Machine.__init__``)."""
        run = CritRun(len(self.runs))
        if self.config is None and machine is not None:
            self.config = machine.config
        self.runs.append(run)
        return run

    @property
    def clock_ns(self) -> float:
        return self.config.clock_ns if self.config is not None else 10.0

    def run_of_interest(self) -> Optional[CritRun]:
        """The run with the longest makespan (where the story is)."""
        populated = [r for r in self.runs if r.threads]
        if not populated:
            return None
        return max(populated, key=lambda r: r.makespan)

    # -- per-thread attribution -----------------------------------------
    def thread_totals(self, run: Optional[CritRun] = None) -> List[Dict]:
        """Per-thread category nanoseconds; sums are exact by construction.

        ``idle`` is defined as the thread's lifetime minus every
        attributed segment, so ``sum(categories) == end - start`` holds
        to float identity for every thread.
        """
        run = run or self.run_of_interest()
        if run is None:
            return []
        rows = []
        for tid in sorted(run.threads):
            rec = run.threads[tid]
            end = rec.close_time()
            cats = {c: 0.0 for c in CATEGORIES}
            attributed = 0.0
            for t0, t1, cat, _addr, _res in rec.segs:
                cats[cat] += t1 - t0
                attributed += t1 - t0
            cats["idle"] = (end - rec.start) - attributed
            rows.append({"tid": tid, "cpu": rec.cpu,
                         "hypernode": rec.hypernode,
                         "start_ns": rec.start, "end_ns": end,
                         "total_ns": end - rec.start,
                         "categories_ns": cats})
        return rows

    def aggregate_totals(self) -> Dict[str, float]:
        """Category nanoseconds summed over every thread of every run."""
        totals = {c: 0.0 for c in CATEGORIES}
        for run in self.runs:
            if not run.threads:
                continue
            for row in self.thread_totals(run):
                for cat, ns in row["categories_ns"].items():
                    totals[cat] += ns
        return totals

    # -- the critical path ----------------------------------------------
    def critical_path(self, run: Optional[CritRun] = None) -> Dict:
        """Walk backwards from the last-finishing thread.

        At each point in time the walk sits on one thread.  Inside a
        *wait* segment whose resolver is another thread, the wake
        interval is attributed to the wait's category and the walk jumps
        to the resolving thread at the write's start time (the causal
        dependency).  Inside any other segment the whole span is
        attributed to its category.  Gaps between segments are idle; a
        thread's creation jumps to its forking parent.  The attributed
        spans partition the makespan exactly.
        """
        run = run or self.run_of_interest()
        if run is None or not run.threads:
            return {"total_ns": 0.0, "steps": [],
                    "categories_ns": {c: 0.0 for c in CATEGORIES},
                    "run_index": None, "end_tid": None}
        threads = run.threads
        # per-thread segment start times for bisection (appended in
        # completion order; within one thread segments never overlap)
        seg_t0: Dict[int, List[float]] = {
            tid: [s[0] for s in rec.segs] for tid, rec in threads.items()}
        origin = min(rec.start for rec in threads.values())
        end_tid = max(threads, key=lambda t: threads[t].close_time())
        cursor = threads[end_tid].close_time()
        tid = end_tid
        cats = {c: 0.0 for c in CATEGORIES}
        steps: List[Dict] = []
        budget = sum(len(rec.segs) for rec in threads.values()) * 4 + 64

        def attribute(cat: str, t0: float, t1: float) -> None:
            if t1 - t0 > _EPS:
                cats[cat] += t1 - t0
                steps.append({"tid": tid, "t0_ns": t0, "t1_ns": t1,
                              "category": cat})

        while cursor - origin > _EPS and budget > 0:
            budget -= 1
            rec = threads[tid]
            i = bisect_right(seg_t0[tid], cursor - _EPS) - 1
            seg = rec.segs[i] if i >= 0 else None
            if seg is None:
                # before the thread's first segment: idle back to its
                # start, then follow the fork edge to the parent
                attribute("idle", rec.start, cursor)
                cursor = rec.start
                if rec.parent is not None and rec.parent in threads:
                    tid = rec.parent
                    continue
                break
            t0, t1, cat, addr, resolver = seg
            if t1 < cursor - _EPS:
                # gap after the segment: the thread was idle
                attribute("idle", t1, cursor)
                cursor = t1
                continue
            if addr is not None and resolver is not None:
                r_tid, r_t = resolver
                if r_tid != tid and r_tid in threads:
                    jump_t = max(r_t, t0)
                    if jump_t < cursor - _EPS:
                        # the wake interval belongs to the wait category;
                        # causally, the releaser's write bounds the run
                        attribute(cat, jump_t, cursor)
                        tid, cursor = r_tid, jump_t
                        continue
            attribute(cat, t0, cursor)
            cursor = t0
            if cursor - rec.start <= _EPS and rec.parent is not None \
                    and rec.parent in threads:
                tid = rec.parent
        total = threads[end_tid].close_time() - origin
        return {"total_ns": total, "categories_ns": cats,
                "steps": steps, "run_index": run.index,
                "end_tid": end_tid}

    # -- what-if projections --------------------------------------------
    def what_if(self, category: str, factor: float,
                run: Optional[CritRun] = None) -> Dict:
        """Coz-style projection: ``category`` sped up by ``factor``.

        Every nanosecond of the critical path attributed to the category
        shrinks by ``1 - 1/factor``; time off the critical path is
        (first-order) hidden behind it and does not move the total.
        """
        if category not in CATEGORIES:
            known = ", ".join(CATEGORIES)
            raise KeyError(f"unknown category {category!r}; one of: {known}")
        if factor <= 0:
            raise ValueError(f"scale factor must be positive, got {factor}")
        cp = self.critical_path(run)
        on_path = cp["categories_ns"].get(category, 0.0)
        saved = on_path * (1.0 - 1.0 / factor)
        projected = cp["total_ns"] - saved
        return {"category": category, "factor": factor,
                "critical_path_ns": on_path,
                "total_ns": cp["total_ns"],
                "savings_ns": saved,
                "projected_total_ns": projected,
                "projected_speedup": (cp["total_ns"] / projected
                                      if projected > _EPS else float("inf"))}

    # -- reporting -------------------------------------------------------
    def to_dict(self, top: int = 10,
                what_if: Optional[List[Tuple[str, float]]] = None) -> Dict:
        run = self.run_of_interest()
        clock = self.clock_ns
        cp = self.critical_path(run)
        threads = self.thread_totals(run)
        aggregate = self.aggregate_totals()
        longest = sorted(cp["steps"],
                         key=lambda s: s["t1_ns"] - s["t0_ns"],
                         reverse=True)[:top]
        projections = []
        targets = what_if if what_if is not None else [
            (cat, 2.0) for cat in CATEGORIES
            if cat != "idle" and cp["categories_ns"].get(cat, 0.0) > 0.0]
        for category, factor in targets:
            projections.append(self.what_if(category, factor, run))
        return {
            "schema_version": SCHEMA_VERSION,
            "clock_ns": clock,
            "runs": len(self.runs),
            "run_of_interest": run.index if run is not None else None,
            "threads": [
                {"tid": row["tid"], "cpu": row["cpu"],
                 "hypernode": row["hypernode"],
                 "total_cycles": row["total_ns"] / clock,
                 "categories_cycles": {
                     c: ns / clock
                     for c, ns in row["categories_ns"].items()}}
                for row in threads],
            "teams": ([{"parent_tid": p, "n_threads": n,
                        "hypernodes": len(g),
                        "threads_per_hypernode": dict(g),
                        "placement": pl}
                       for p, n, g, pl in run.teams]
                      if run is not None else []),
            "aggregate_cycles": {c: ns / clock
                                 for c, ns in aggregate.items()},
            "critical_path": {
                "total_us": cp["total_ns"] / 1e3,
                "end_tid": cp["end_tid"],
                "categories_us": {c: ns / 1e3
                                  for c, ns in cp["categories_ns"].items()},
                "steps": len(cp["steps"]),
                "longest_steps": [
                    {"tid": s["tid"], "category": s["category"],
                     "t0_us": s["t0_ns"] / 1e3,
                     "dur_us": (s["t1_ns"] - s["t0_ns"]) / 1e3}
                    for s in longest],
            },
            "what_if": [
                {"category": p["category"], "factor": p["factor"],
                 "critical_path_us": p["critical_path_ns"] / 1e3,
                 "projected_total_us": p["projected_total_ns"] / 1e3,
                 "savings_us": p["savings_ns"] / 1e3,
                 "projected_speedup": p["projected_speedup"]}
                for p in projections],
        }

    def render_timeline(self, run: Optional[CritRun] = None,
                        width: int = 64) -> str:
        """Per-thread ASCII wait-state timeline (dominant category/bucket)."""
        run = run or self.run_of_interest()
        if run is None or not run.threads:
            return "(no threads recorded)"
        origin = min(rec.start for rec in run.threads.values())
        end = max(rec.close_time() for rec in run.threads.values())
        span = max(end - origin, _EPS)
        bucket = span / width
        lines = [f"wait states, run {run.index} "
                 f"({origin / 1e3:.1f} .. {end / 1e3:.1f} us, "
                 f"one column = {bucket / 1e3:.2f} us)"]
        for tid in sorted(run.threads):
            rec = run.threads[tid]
            weights = [dict() for _ in range(width)]
            for t0, t1, cat, _addr, _res in rec.segs:
                first = int((t0 - origin) / bucket)
                last = min(int((t1 - origin - _EPS) / bucket), width - 1)
                for b in range(max(first, 0), last + 1):
                    b0 = origin + b * bucket
                    overlap = min(t1, b0 + bucket) - max(t0, b0)
                    if overlap > 0:
                        weights[b][cat] = weights[b].get(cat, 0) + overlap
            close = rec.close_time()
            row = []
            for b in range(width):
                b0 = origin + b * bucket
                if b0 + bucket <= rec.start + _EPS or b0 >= close - _EPS:
                    row.append(" ")      # before birth / after death
                elif weights[b]:
                    cat = max(weights[b], key=weights[b].get)
                    row.append(_GLYPHS[cat])
                else:
                    row.append(_GLYPHS["idle"])
            lines.append(f"  t{tid:02d} hn{rec.hypernode}/cpu{rec.cpu:<3d} "
                         f"|{''.join(row)}|")
        legend = "  ".join(f"{_GLYPHS[c]}={c}" for c in CATEGORIES)
        lines.append(f"  legend: {legend}")
        return "\n".join(lines)

    def render(self, title: str = "critscope", top: int = 10,
               what_if: Optional[List[Tuple[str, float]]] = None) -> str:
        doc = self.to_dict(top=top, what_if=what_if)
        parts = [f"== {title} =="]
        if not doc["threads"]:
            parts.append(
                "no machine-level thread activity was recorded; critscope "
                "needs an experiment that runs the simulated machine "
                "(e.g. fig2, fig3, fig4, contention, memclass)")
            return "\n\n".join(parts)
        clock = doc["clock_ns"]
        tt = Table(
            f"per-thread cycle attribution (run {doc['run_of_interest']} "
            f"of {doc['runs']}, us)",
            ["thread", "cpu", "hn", "total"] +
            [c for c in CATEGORIES])
        for row in doc["threads"]:
            cats = row["categories_cycles"]
            tt.add_row(f"t{row['tid']}", row["cpu"], row["hypernode"],
                       f"{row['total_cycles'] * clock / 1e3:.1f}",
                       *(f"{cats[c] * clock / 1e3:.1f}"
                         for c in CATEGORIES))
        parts.append(tt.render())
        parts.append(self.render_timeline())
        cp = doc["critical_path"]
        pt = Table(f"critical path (ends on t{cp['end_tid']}, "
                   f"{cp['steps']} spans)",
                   ["category", "on-path us", "share"])
        total = max(cp["total_us"], _EPS)
        for cat in CATEGORIES:
            us = cp["categories_us"][cat]
            if us > 0:
                pt.add_row(cat, f"{us:.1f}", f"{us / total:.1%}")
        pt.add_row("TOTAL", f"{cp['total_us']:.1f}", "100.0%")
        parts.append(pt.render())
        if doc["what_if"]:
            wt = Table("what-if projections (critical-path scaling)",
                       ["category", "factor", "on-path us",
                        "projected us", "saved us", "speedup"])
            for p in doc["what_if"]:
                wt.add_row(p["category"], f"{p['factor']:g}x",
                           f"{p['critical_path_us']:.1f}",
                           f"{p['projected_total_us']:.1f}",
                           f"{p['savings_us']:.1f}",
                           f"{p['projected_speedup']:.3f}x")
            parts.append(wt.render())
        return "\n\n".join(parts)


# -- ambient installation ---------------------------------------------------

_CRITSCOPE: Slot[CritScope] = Slot("repro.critscope")

#: the analyzer installed by :func:`use_critscope` in this context, or None
active_critscope = _CRITSCOPE.get
#: ``with use_critscope(scope):`` — machines built inside report into it
use_critscope = _CRITSCOPE.use


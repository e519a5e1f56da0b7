"""Outside-in span recording: layer self times from wrapped entry points.

The traced run never edits the program.  :func:`patched` swaps a timing
wrapper onto each layer's public entry points, at the names callers
look up, and restores the originals on exit.  Every call records one
span (name, start, end, parent) in memory.  A span's self time is its
duration minus the time its child spans cover, so the self times of all
spans under one root partition the root's wall time exactly.

Inside simulator calls the program's own ``HostScope`` splits time by
region (event heap, dispatch, memory, app, sched, pvm).  The recorder
snapshots the scope at every span boundary, takes region time out of
the span it ran in and books it to the region's own row, so the rows
still sum to the traced wall.
"""

from __future__ import annotations

import functools
import sys
import time
from collections import Counter
from contextlib import contextmanager
from typing import Callable, Dict, List, Optional

__all__ = ["LAYERS", "REGION_LAYERS", "Span", "SpanRecorder", "patched"]

#: HostScope region -> layer row.  Regions outside this map (``export``,
#: ``run``) never open during a benchmark pass; if one did, its time
#: would land in ``other`` rather than vanish.
REGION_LAYERS = {
    "event_heap": "sim.event_heap",
    "dispatch": "sim.dispatch",
    "memory": "machine.memory",
    "app": "runtime.app",
    "sched": "runtime.sched",
    "pvm": "pvm.run",
}

#: every row of the layer table, in report order.  ``other`` is the
#: root span's self time: benchmark code and anything no wrapper covers.
LAYERS = (
    "apps.problem_build", "perfmodel.run",
    "experiments.plan", "experiments.unit", "experiments.assemble",
    "exec.execute", "exec.cache",
    "machine.build", "machine.memory",
    "sim.event_heap", "sim.dispatch",
    "runtime.run", "runtime.app", "runtime.sched", "pvm.run",
    "server.queue", "server.run", "sdk.transport",
    "other",
)


class Span:
    """One recorded call: ``r0``/``r1`` are HostScope region snapshots
    (ns per region) at its start and end, or None without a scope."""

    __slots__ = ("name", "start", "end", "parent", "r0", "r1")

    def __init__(self, name: str, start: float, parent: Optional[int],
                 r0: Optional[Dict[str, int]] = None):
        self.name = name
        self.start = start
        self.end = start
        self.parent = parent
        self.r0 = r0
        self.r1 = r0

    def to_dict(self) -> Dict:
        return {"name": self.name, "start": self.start, "end": self.end,
                "parent": self.parent}


class SpanRecorder:
    """In-memory span stack for one thread.

    ``scope`` is an installed ``HostScope`` whose region time should be
    split out of the spans it runs in; ``clock`` is injectable so the
    self-time arithmetic can be tested on a synthetic timeline.
    """

    def __init__(self, scope=None, clock: Callable[[], float] = time.perf_counter):
        self.spans: List[Span] = []
        self.counts: Counter = Counter()
        self._open: List[int] = []
        self._scope = scope
        self._clock = clock

    def _regions(self) -> Optional[Dict[str, int]]:
        scope = self._scope
        if scope is None:
            return None
        # HostScope books a region's time lazily at its next transition;
        # add the still-pending slice of the open region so a snapshot
        # taken inside a region is exact.
        ns = dict(scope._self_ns)
        if scope._stack:
            top = scope._stack[-1][0]
            ns[top] = ns.get(top, 0) + time.perf_counter_ns() - scope._mark
        return ns

    def begin(self, name: str) -> int:
        parent = self._open[-1] if self._open else None
        self.spans.append(Span(name, self._clock(), parent, self._regions()))
        index = len(self.spans) - 1
        self._open.append(index)
        self.counts[name] += 1
        return index

    def end(self, index: int) -> None:
        span = self.spans[index]
        span.r1 = self._regions()
        span.end = self._clock()
        self._open.pop()

    def record(self, name: str, start: float, end: float,
               parent: Optional[int] = None) -> int:
        """Add a span timed elsewhere (e.g. server spans of one job)."""
        span = Span(name, start, parent)
        span.end = end
        self.spans.append(span)
        self.counts[name] += 1
        return len(self.spans) - 1

    def wrap(self, name: str, fn: Callable) -> Callable:
        """``fn`` with every call recorded as a ``name`` span."""
        @functools.wraps(fn)
        def traced(*args, **kwargs):
            index = self.begin(name)
            try:
                return fn(*args, **kwargs)
            finally:
                self.end(index)
        return traced

    def counting(self, name: str, fn: Callable) -> Callable:
        """``fn`` with its calls counted under ``name`` (no span)."""
        @functools.wraps(fn)
        def counted(*args, **kwargs):
            self.counts[name] += 1
            return fn(*args, **kwargs)
        return counted

    def layer_seconds(self) -> Dict[str, float]:
        """Self seconds per row: span self time minus the HostScope
        region time inside it, plus that region time on its own row."""
        child_s = [0.0] * len(self.spans)
        child_ns: List[Counter] = [Counter() for _ in self.spans]
        deltas = []
        for span in self.spans:
            delta = Counter()
            if span.r0 is not None:
                for region, ns in span.r1.items():
                    delta[region] = ns - span.r0.get(region, 0)
            deltas.append(delta)
            if span.parent is not None:
                child_s[span.parent] += span.end - span.start
                child_ns[span.parent].update(delta)
        rows: Dict[str, float] = Counter()
        for i, span in enumerate(self.spans):
            self_s = span.end - span.start - child_s[i]
            for region, ns in deltas[i].items():
                region_s = (ns - child_ns[i][region]) / 1e9
                self_s -= region_s
                rows[REGION_LAYERS.get(region, "other")] += region_s
            rows[span.name] += self_s
        return dict(rows)


def _function_targets() -> Dict[Callable, str]:
    """Module-level entry points -> row.  Each is replaced wherever a
    ``repro`` module holds a reference to it, including module-level
    dicts such as fig7's and fig8's problem tables."""
    from repro.apps.fem import workload as fem
    from repro.apps.nbody import workload as nbody
    from repro.apps.pic import workload as pic
    from repro.exec import units
    from repro.experiments import get_experiment, list_experiments

    targets = {fn: "apps.problem_build" for fn in (
        fem.small1_problem, fem.small2_problem, fem.large_problem,
        pic.small_problem, pic.large_problem,
        nbody.problem_32k, nbody.problem_256k, nbody.problem_2m)}
    targets[units.plan_units] = "experiments.plan"
    targets[units.run_unit] = "experiments.unit"
    for exp_id in list_experiments():
        targets[get_experiment(exp_id)] = "experiments.assemble"
    return targets


def _method_targets():
    from repro.apps.fem.workload import FEMWorkload
    from repro.apps.nbody.workload import NBodyWorkload
    from repro.apps.pic.workload import PICWorkload
    from repro.apps.ppm.workload import PPMWorkload
    from repro.exec.cache import ResultCache
    from repro.machine import Machine
    from repro.perfmodel import C90Model, PerformanceModel
    from repro.pvm.system import PvmSystem
    from repro.runtime import Runtime

    return [
        (FEMWorkload, "__init__", "apps.problem_build"),
        (PICWorkload, "__init__", "apps.problem_build"),
        (NBodyWorkload, "__init__", "apps.problem_build"),
        (PPMWorkload, "__init__", "apps.problem_build"),
        (PerformanceModel, "run", "perfmodel.run"),
        (C90Model, "time_ns", "perfmodel.run"),
        (ResultCache, "digest", "exec.cache"),
        (ResultCache, "get", "exec.cache"),
        (ResultCache, "put", "exec.cache"),
        (Machine, "__init__", "machine.build"),
        (Runtime, "run", "runtime.run"),
        (PvmSystem, "run_tasks", "pvm.run"),
    ]


@contextmanager
def patched(recorder: SpanRecorder):
    """Install ``recorder``'s wrappers on every layer entry point, and
    count FEM mesh builds as ``apps.fem.workload`` looks them up."""
    from repro.apps.fem import workload as fem

    undo = []

    def swap(owner, name, new, is_dict=False):
        old = owner[name] if is_dict else getattr(owner, name)
        undo.append((owner, name, old, is_dict))
        if is_dict:
            owner[name] = new
        else:
            setattr(owner, name, new)

    try:
        for cls, name, row in _method_targets():
            swap(cls, name, recorder.wrap(row, cls.__dict__[name]))
        # keyed by identity: module globals may hold unhashable objects
        wrapped = {id(fn): recorder.wrap(row, fn)
                   for fn, row in _function_targets().items()}
        modules = [m for n, m in list(sys.modules.items())
                   if m is not None and (n == "repro" or n.startswith("repro."))]
        for module in modules:
            for name, value in list(vars(module).items()):
                if id(value) in wrapped:
                    swap(module, name, wrapped[id(value)])
                elif isinstance(value, dict) and not name.startswith("__"):
                    for key, item in list(value.items()):
                        if id(item) in wrapped:
                            swap(value, key, wrapped[id(item)], is_dict=True)
        for name in ("small_mesh", "large_mesh"):
            swap(fem, name,
                 recorder.counting("apps.fem_mesh_builds", getattr(fem, name)))
        yield recorder
    finally:
        for owner, name, old, is_dict in reversed(undo):
            if is_dict:
                owner[name] = old
            else:
                setattr(owner, name, old)

"""The profiler scope table: memscope, critscope and hostscope as data.

Each profiler that can watch a run is one :class:`Scope` in
:data:`SCOPES`.  An entry records how the profiler is built from CLI
arguments, installed around a run, rendered and turned into a manifest
block.  Every caller reads the table: the ``python -m repro <scope>
<experiment>`` commands and the ``--<scope>`` flags of :mod:`repro.cli`,
the job server's ``telemetry`` kinds, and the profiler blocks of
:func:`~repro.obs.metrics.build_manifest`.  A new profiler is one entry
here.

The command and the flag differ in two ways, both fields of an entry:
``probe`` tops a profile up on the command only (memscope's placement
probe, when a model-level experiment drove no machine), and a profiler
whose ``has_report`` is false fails the command with ``command_empty``
(exit 2) but only prints ``flag_empty`` for the flag, which then folds
no manifest block.
"""

from __future__ import annotations

from contextlib import contextmanager
from dataclasses import dataclass
from typing import Callable, Dict, Optional, Tuple

from . import critscope, hostscope, memscope

__all__ = ["Scope", "SCOPES"]


@dataclass(frozen=True)
class Scope:
    """How one profiler plugs into the CLI, the job server and manifests."""

    name: str
    #: one line for the command listing and the ``--<name>`` flag help
    summary: str
    #: ``(config, args=None) -> profiler``; ``args`` is the CLI
    #: namespace, None for the defaults (the job server)
    build: Callable
    #: ``profiler -> context manager`` installing it around a run
    install: Callable
    #: the profiler's own CLI options: ``(flag, add_argument kwargs)``
    options: Tuple[Tuple[str, Dict], ...] = ()
    #: ``args -> None``: validates (and normalises) those options,
    #: raising ValueError with one actionable line
    check: Callable = lambda args: None
    #: CLI options passed to ``to_dict``/``render`` besides ``top``
    report_options: Tuple[str, ...] = ()
    #: ``profiler -> bool``: whether the run left anything to report
    has_report: Callable = lambda profiler: True
    #: command only: ``(config, profiler)``, called after the run
    probe: Optional[Callable] = None
    #: printed instead of a report, formatted with ``exp_id``: the
    #: command's error and the flag's note
    command_empty: str = ""
    flag_empty: str = ""

    def _report_kwargs(self, args) -> Dict:
        kwargs = {"top": getattr(args, "top", 10)}
        for name in self.report_options:
            kwargs[name] = getattr(args, name, None)
        return kwargs

    def block(self, profiler, args=None) -> Dict:
        """The run's manifest block (the command's ``--json`` document)."""
        return profiler.to_dict(**self._report_kwargs(args))

    def render(self, profiler, title: str, args=None) -> str:
        """The run's report as rendered tables."""
        return profiler.render(title=title, **self._report_kwargs(args))


@contextmanager
def _use_and_profile(hs):
    """Install ``hs`` and time the block under its ``run`` root region."""
    with hostscope.use_hostscope(hs), hs.profile():
        yield hs


def _check_sample(args) -> None:
    if args.memscope_sample < 1:
        raise ValueError(
            f"--memscope-sample must be >= 1 (got {args.memscope_sample}): "
            "1 profiles every access, N profiles one in N")


def _probe_placement(config, ms) -> None:
    # A model-level experiment: the analytic perfmodel attributed its
    # miss populations (the 'model' block) but no cycle-level machine
    # ran.  Probe the machine's page placement under this config so the
    # miss-class breakdown reflects real GCB/SCI paths.
    if ms.machine_accesses == 0:
        memscope.placement_probe(config, ms)


def _parse_what_if(args) -> None:
    """``--what-if CAT=FACTOR`` specs -> ``args.what_if`` as
    ``[(cat, factor)]``, or None when there are none."""
    scalable = (", ".join(sorted(critscope.WHAT_IF_PARAMS))
                + ", compute, memory")
    parsed = []
    for spec in args.what_if or []:
        cat, sep, factor_s = spec.partition("=")
        if not sep:
            raise ValueError(
                f"--what-if expects CATEGORY=FACTOR (got {spec!r}); "
                "e.g. --what-if barrier_release=2")
        try:
            factor = float(factor_s)
        except ValueError:
            raise ValueError(
                f"--what-if factor must be a number (got {factor_s!r} "
                f"in {spec!r})") from None
        if factor <= 0:
            raise ValueError(
                f"--what-if factor must be > 0 (got {factor_s} in "
                f"{spec!r}); 2 means 'twice as fast'")
        if cat not in critscope.CATEGORIES or cat == "idle":
            raise ValueError(
                f"--what-if category {cat!r} is not projectable; "
                f"choose one of: {scalable}")
        parsed.append((cat, factor))
    args.what_if = parsed or None


SCOPES: Dict[str, Scope] = {scope.name: scope for scope in (
    Scope(
        name="memscope",
        summary="memory-system profile (miss classes, hop counts, ring "
                "occupancy, hot pages)",
        build=lambda config, args=None: memscope.MemScope(
            config, sample=getattr(args, "memscope_sample", 1)),
        install=memscope.use_memscope,
        options=(("--memscope-sample", dict(
            type=int, default=1, metavar="N",
            help="profile 1-in-N accesses for the per-page heat map "
                 "(aggregate miss/hit counters stay exact; default: 1 = "
                 "every access)")),),
        check=_check_sample,
        probe=_probe_placement),
    Scope(
        name="critscope",
        summary="wait-state and critical-path analysis with what-if "
                "speedup projections",
        build=lambda config, args=None: critscope.CritScope(config),
        install=critscope.use_critscope,
        options=(("--what-if", dict(
            action="append", default=None, metavar="CAT=FACTOR",
            help="with critscope: project run time with category CAT "
                 "sped up FACTOR-fold (e.g. barrier_release=2); "
                 "repeatable")),),
        check=_parse_what_if,
        report_options=("what_if",),
        has_report=lambda cs: any(run.threads for run in cs.runs),
        command_empty=(
            "experiment {exp_id!r} ran no cycle-level machine (it is an "
            "analytic model-level experiment); critscope needs simulated "
            "threads to attribute — try fig2, fig3, fig4, or a PVM "
            "experiment"),
        flag_empty=(
            "[critscope {exp_id}] no cycle-level machine ran (analytic "
            "model-level experiment); nothing to attribute")),
    Scope(
        name="hostscope",
        summary="host-time self-profile (wall clock per simulator "
                "subsystem, simulated cycles/s and events/s)",
        build=lambda config, args=None: hostscope.HostScope(config),
        install=_use_and_profile),
)}

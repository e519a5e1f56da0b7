"""Command-line entry point: ``python -m repro <experiment> [options]``.

Examples::

    python -m repro list                      # show available experiments
    python -m repro fig4                      # regenerate Figure 4
    python -m repro all                       # regenerate everything (slow)
    python -m repro scale128 --jobs 4         # fan the sweep out to 4 procs
    python -m repro fig7 --cache-stats        # show result-cache hit rates
    python -m repro fig3 --trace t.json       # capture a Perfetto trace
    python -m repro fig3 --metrics m.json     # write a metrics manifest
    python -m repro fig6 --profile            # print counter/span profile
    python -m repro timeline                  # ASCII Gantt of a demo run
    python -m repro timeline --trace t.json   # ... of a captured trace
    python -m repro memscope fig6             # memory-system profile
    python -m repro memscope fig6 --json      # ... as JSON
    python -m repro fig3 --memscope --metrics m.json   # fold into manifest
    python -m repro critscope fig3            # critical path / wait states
    python -m repro critscope fig2 --what-if forkjoin=2
    python -m repro fig3 --critscope --metrics m.json  # fold into manifest
    python -m repro hostscope fig2            # host-time self-profile
    python -m repro hostscope fig2 --json     # ... as JSON
    python -m repro fig3 --hostscope --metrics m.json  # fold into manifest
    python -m repro fig3 --jobs 4 --progress  # live JSONL sweep telemetry
    python -m repro fig3 --no-cache --journal j.jsonl  # rerun to resume
    python -m repro fig3 --jobs 4 --unit-timeout 60 --retries 3
    python -m repro fig3 --jobs 4 --chaos examples/chaos/kill_and_corrupt.json
    python -m repro ledger record .bench_work/des-seed1.json  # e2e run
    python -m repro ledger trend               # sparkline trajectory
    python -m repro ledger gate --window 5     # windowed regression gate
"""

from __future__ import annotations

import argparse
import functools
import os
import sys
from typing import List, Optional

from .core import spp1000
from .experiments import EXPERIMENTS, list_experiments, resolve_experiment_id
from .obs.scopes import SCOPES


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="repro",
        description=("Reproduce the tables and figures of 'A Performance "
                     "Evaluation of the Convex SPP-1000' (SC'95) on the "
                     "simulated machine."))
    profilers = ", ".join(f"'{name} <experiment>' ({scope.summary})"
                          for name, scope in SCOPES.items())
    parser.add_argument(
        "experiment", nargs="?", default=None,
        help="experiment id (fig2, fig3, ...), 'list', 'all', "
             "'timeline' (ASCII Gantt view of a trace), or a profiler "
             f"command: {profilers}")
    parser.add_argument(
        "--hypernodes", type=int, default=2,
        help="hypernodes in the simulated machine (default: 2, as measured "
             "in the paper)")
    parser.add_argument(
        "--quick", action="store_true",
        help="reduced repetitions / problem sizes for a fast run")
    parser.add_argument(
        "--seed", type=int, default=None,
        help="seed recorded in the run's cache keys and journal; results "
             "do not depend on it, as every workload RNG is seeded locally")
    parser.add_argument(
        "--trace", metavar="PATH", default=None,
        help="write a Chrome trace-event JSON of the run to PATH (open in "
             "Perfetto or chrome://tracing); with the 'timeline' command, "
             "the trace file to render instead")
    parser.add_argument(
        "--metrics", metavar="PATH", default=None,
        help="write a metrics.json manifest (headline data, per-phase "
             "counter deltas, imbalance, instrumentation overhead) to PATH")
    parser.add_argument(
        "--profile", action="store_true",
        help="print an hpm/CXpa-style profile (counters + span summary) "
             "after each experiment")
    parser.add_argument(
        "--faults", metavar="PATH", default=None,
        help="fault-plan JSON (see docs/robustness.md): inject SCI ring "
             "failures, CPU/hypernode failures, and PVM message loss at "
             "simulated timestamps")
    parser.add_argument(
        "--journal", metavar="PATH", default=None,
        help="crash-safe sweep journal for --no-cache runs: append every "
             "unit completion to PATH (JSONL, fsync-ed); rerunning the "
             "same sweep with the same PATH replays it and computes only "
             "the missing units. A journal of another run, or a file "
             "that is not a journal, exits 2 and is left untouched")
    parser.add_argument(
        "--unit-timeout", type=float, default=None, metavar="SECONDS",
        help="wall-clock limit per work-unit attempt; a worker that "
             "neither finishes nor fails in time is terminated, replaced, "
             "and the unit retried (default: no timeout)")
    parser.add_argument(
        "--retries", type=int, default=None, metavar="N",
        help="worker retries per failed unit (exponential backoff) before "
             "the final in-process attempt and quarantine (default: 2)")
    parser.add_argument(
        "--chaos", metavar="PATH", default=None,
        help="host-chaos plan JSON (see docs/robustness.md): "
             "deterministically kill workers, delay units, corrupt cache "
             "entries, and drop results to exercise the resilience "
             "machinery")
    parser.add_argument(
        "--jobs", type=int, default=None, metavar="N",
        help="worker processes for the work units (default: 1, serial "
             "in-process)")
    parser.add_argument(
        "--cache-dir", metavar="PATH", default=None,
        help="result-cache directory (default: $REPRO_CACHE_DIR, else "
             "$XDG_CACHE_HOME/repro, else ~/.cache/repro)")
    parser.add_argument(
        "--no-cache", action="store_true",
        help="disable the content-addressed result cache for this run")
    parser.add_argument(
        "--cache-stats", action="store_true",
        help="print an execution summary (units, cache hits, workers) "
             "after each experiment")
    for name, scope in SCOPES.items():
        parser.add_argument(
            f"--{name}", action="store_true",
            help=f"attach {name} to the run: print its {scope.summary} "
                 f"and fold a '{name}' block into --metrics manifests")
        for flag, spec in scope.options:
            parser.add_argument(flag, **spec)
    parser.add_argument(
        "--progress", nargs="?", const="-", default=None, metavar="PATH",
        help="stream live JSONL sweep telemetry (unit completions with "
             "host timings, ETA, cache hit-rate, worker occupancy) to "
             "PATH, or to stderr when PATH is omitted")
    parser.add_argument(
        "--json", action="store_true",
        help="with a profiler command: print the profile as a JSON "
             "document instead of rendered tables")
    parser.add_argument(
        "--top", type=int, default=10, metavar="N",
        help="with a profiler: how many hot pages, flagged cache lines, "
             "critical-path spans or host-time regions to report "
             "(default: 10)")
    return parser


def _unknown_experiment(exp_id: str) -> int:
    print(f"unknown experiment {exp_id!r}", file=sys.stderr)
    print("valid experiments:", file=sys.stderr)
    commands = {
        **list_experiments(),
        "timeline": "ASCII Gantt view of a trace",
        **{name: scope.summary for name, scope in SCOPES.items()},
        "serve": "run the simulation job server (repro.sdk clients)",
        "ledger": "history of benchmarks/e2e run records",
    }
    for name, title in commands.items():
        print(f"  {name:10s} {title}", file=sys.stderr)
    return 2


def _suffixed(path: str, exp_id: str, multi: bool) -> str:
    """Per-experiment output path when running more than one target:
    the id goes before the file name's extension, never into a
    directory name."""
    if not multi:
        return path
    stem, ext = os.path.splitext(path)
    return f"{stem}.{exp_id}{ext}"


def _resolve_output(path: str, default_name: str) -> str:
    """Expand a directory-style output path to a file inside it.

    ``--metrics out/`` (or an existing directory) means "write the
    default-named file into that directory", creating it if needed.
    """
    if path.endswith(os.sep) or path.endswith("/") or os.path.isdir(path):
        os.makedirs(path, exist_ok=True)
        return os.path.join(path, default_name)
    return path


def _render_profile(tracer) -> str:
    from .core.tables import Table
    from .obs.metrics import span_summary

    counters = Table("protocol counters", ["counter", "count"])
    for name in sorted(tracer.counters):
        counters.add_row(name, tracer.counters[name])
    parts = [counters.render()]
    summary = span_summary(tracer)
    if summary:
        spans = Table("span summary",
                      ["span", "count", "total us", "mean us", "imbalance"])
        for name, s in sorted(summary.items(),
                              key=lambda kv: -kv[1]["total_ns"]):
            spans.add_row(name, s["count"], f"{s['total_ns'] / 1e3:.1f}",
                          f"{s['mean_ns'] / 1e3:.2f}",
                          f"{s['imbalance']:.2f}")
        parts.append(spans.render())
    return "\n\n".join(parts)


def _timeline(args) -> int:
    from .obs.export import load_trace_checked
    from .obs.timeline import render_timeline

    if args.trace:
        events = load_trace_checked(args.trace)
        if events is None:
            return 2
        try:
            text = render_timeline(events, title=args.trace)
        except (TypeError, ValueError) as exc:  # a field not a number
            print(f"cannot parse trace file {args.trace}: {exc}",
                  file=sys.stderr)
            return 2
        print(text)
        return 0
    # No trace file: capture a small barrier demo live and render it.
    from .obs import timeline_from_tracer, use_tracer
    from .sim import Tracer

    tracer = Tracer(enabled=True)
    with use_tracer(tracer):
        from .experiments.fig3_barrier import barrier_metrics_us
        from .runtime import Placement

        barrier_metrics_us(min(8, spp1000(args.hypernodes).n_cpus),
                           Placement.UNIFORM,
                           spp1000(args.hypernodes), rounds=2)
    print(render_timeline(timeline_from_tracer(tracer),
                          title="fig3 barrier demo"))
    return 0


def _scope_command(scope, args, config, fault_plan) -> int:
    """``python -m repro <scope> <experiment>``: one profiler's view of
    a live run."""
    import json as _json

    if args.trace:
        print(f"{scope.name} profiles a live run and reads no trace file; "
              f"'python -m repro {args.experiment or '<experiment>'} "
              f"--{scope.name} --trace {args.trace}' profiles the run and "
              "saves its trace", file=sys.stderr)
        return 2
    if not args.experiment:
        print(f"{scope.name} needs an experiment id (e.g. 'python -m repro "
              f"{scope.name} fig3')", file=sys.stderr)
        return 2
    from .exec import execute
    from .faults import use_faults

    try:
        exp_id = resolve_experiment_id(args.experiment)
    except KeyError:
        return _unknown_experiment(args.experiment)
    profiler = scope.build(config, args)
    with use_faults(fault_plan), scope.install(profiler):
        execute(exp_id, config, quick=args.quick, fault_plan=fault_plan,
                observed=True)
    if scope.probe is not None:
        scope.probe(config, profiler)
    if not scope.has_report(profiler):
        print(scope.command_empty.format(exp_id=exp_id), file=sys.stderr)
        return 2
    if args.json:
        doc = scope.block(profiler, args)
        doc["experiment"] = exp_id
        print(_json.dumps(doc, indent=2))
    else:
        print(scope.render(profiler, f"{scope.name}: {exp_id}", args))
    return 0


def main(argv: Optional[List[str]] = None) -> int:
    argv = list(sys.argv[1:] if argv is None else argv)
    verb = _VERBS.get(argv[0]) if argv else None
    return verb(argv[1:]) if verb is not None else _main(argv)


def _main(argv: List[str], command=None) -> int:
    """Parse ``argv`` and run the experiments it names, or, given one of
    :data:`~repro.obs.scopes.SCOPES` as ``command``, that profiler's
    command."""
    args = build_parser().parse_args(argv)
    if args.jobs is not None and args.jobs < 1:
        print(f"--jobs must be >= 1 (got {args.jobs}): use --jobs 1 for a "
              "serial run or --jobs N to fan work units out to N worker "
              "processes", file=sys.stderr)
        return 2
    if args.unit_timeout is not None and args.unit_timeout <= 0:
        print(f"--unit-timeout must be > 0 seconds (got "
              f"{args.unit_timeout}); omit the flag to disable per-unit "
              "timeouts", file=sys.stderr)
        return 2
    if args.retries is not None and args.retries < 0:
        print(f"--retries must be >= 0 (got {args.retries}): 0 disables "
              "worker retries, N allows N retries with exponential "
              "backoff", file=sys.stderr)
        return 2
    if args.top < 1:
        print(f"--top must be >= 1 (got {args.top}): it is how many hot "
              "pages, flagged lines, critical-path spans or host-time "
              "regions a profiler lists", file=sys.stderr)
        return 2
    try:
        for scope in SCOPES.values():
            scope.check(args)
        config = spp1000(n_hypernodes=args.hypernodes)
    except ValueError as exc:
        print(exc, file=sys.stderr)
        return 2
    if command is None:
        if args.experiment is None:
            commands = ", ".join(f"'{name}'" for name in (
                "list", "all", "timeline", *SCOPES, "serve", "ledger"))
            print(f"an experiment id (or {commands}) is required; try "
                  "'python -m repro list'", file=sys.stderr)
            return 2
        if args.experiment == "list":
            from .exec import plan_units

            for exp_id, title in list_experiments().items():
                count = len(plan_units(exp_id, config, quick=args.quick))
                print(f"{exp_id:10s} {count:4d} units  {title}")
            return 0
        if args.experiment == "timeline":
            return _timeline(args)
        if (args.experiment != "all"
                and args.experiment not in list_experiments()):
            return _unknown_experiment(args.experiment)

    ok, fault_plan = _load_faults(args, config)
    if not ok:
        return 2
    if command is not None:
        return _scope_command(command, args, config, fault_plan)
    ok, chaos_plan = _load_chaos(args)
    if not ok:
        return 2

    targets = (list(EXPERIMENTS) if args.experiment == "all"
               else [args.experiment])
    multi = len(targets) > 1
    profiling = [scope for scope in SCOPES.values()
                 if getattr(args, scope.name)]
    observing = bool(args.trace or args.metrics or args.profile
                     or profiling)
    if args.trace:
        args.trace = _resolve_output(args.trace, "trace.json")
    if args.metrics:
        args.metrics = _resolve_output(args.metrics, "metrics.json")
    # Fail fast on unwritable output paths -- before, not after, the run.
    for path in (args.trace, args.metrics):
        if path:
            parent = os.path.dirname(os.path.abspath(path))
            if not os.path.isdir(parent):
                print(f"output directory does not exist: {parent}",
                      file=sys.stderr)
                return 2
    from contextlib import ExitStack

    from .exec import (
        CacheRootError,
        JournalError,
        ProgressStream,
        ResiliencePolicy,
        SweepJournal,
        UnitExecutionError,
        execute,
    )
    from .exec.resilience import DEFAULT_MAX_RETRIES
    from .obs import use_tracer, write_chrome_trace, write_metrics
    from .sim import Tracer

    cache = _build_cache(args)
    if cache is not None:
        try:
            cache.check_root()
        except CacheRootError as exc:
            print(str(exc), file=sys.stderr)
            return 2
    policy = None
    if args.unit_timeout is not None or args.retries is not None:
        policy = ResiliencePolicy(
            unit_timeout_s=args.unit_timeout,
            max_retries=(args.retries if args.retries is not None
                         else DEFAULT_MAX_RETRIES))
    progress = ProgressStream(args.progress) if args.progress else None
    for exp_id in targets:
        journal = (SweepJournal(_suffixed(args.journal, exp_id, multi))
                   if args.journal else None)
        tracer = Tracer(enabled=True) if observing else None
        profilers = [(scope, scope.build(config, args))
                     for scope in profiling]
        try:
            with ExitStack() as stack:
                if fault_plan is not None:
                    # only a plan needs the fault layer, and it loads
                    # the simulator, which a model run never builds
                    from .faults import use_faults

                    stack.enter_context(use_faults(fault_plan))
                if tracer is not None:
                    stack.enter_context(use_tracer(tracer))
                for scope, profiler in profilers:
                    stack.enter_context(scope.install(profiler))
                result, report = execute(
                    exp_id, config, jobs=args.jobs or 1, quick=args.quick,
                    cache=cache, fault_plan=fault_plan, seed=args.seed,
                    observed=observing, progress=progress,
                    policy=policy, chaos=chaos_plan, journal=journal)
        except (JournalError, UnitExecutionError) as exc:
            return _execution_failed(exc, progress)
        print(result.render())
        if args.profile:
            print()
            print(_render_profile(tracer))
        for scope, profiler in profilers:
            print()
            print(scope.render(profiler, f"{scope.name}: {exp_id}", args)
                  if scope.has_report(profiler)
                  else scope.flag_empty.format(exp_id=exp_id))
        if args.trace:
            path = _suffixed(args.trace, exp_id, multi)
            write_chrome_trace(tracer, path, config)
            print(f"\ntrace written to {path}")
        if args.metrics:
            path = _suffixed(args.metrics, exp_id, multi)
            manifest = result.manifest(
                config=config, tracer=tracer, execution=report.to_dict(),
                **{scope.name: scope.block(profiler, args)
                   for scope, profiler in profilers
                   if scope.has_report(profiler)})
            write_metrics(manifest, path)
            print(f"metrics manifest written to {path}")
        if args.cache_stats:
            print()
            print(report.render())
        print()
    if progress is not None:
        progress.close()
    return 0


def _load_faults(args, config):
    """``(ok, plan)`` for ``--faults`` (``(True, None)`` when no plan is
    requested); prints every validation problem."""
    if not args.faults:
        return True, None
    from .faults import FaultPlanError, load_plan

    try:
        return True, load_plan(args.faults, config)
    except OSError as exc:
        print(f"cannot read fault plan: {exc}", file=sys.stderr)
        return False, None
    except FaultPlanError as exc:
        print(f"invalid fault plan {args.faults}:", file=sys.stderr)
        for line in str(exc).splitlines():
            print(f"  {line}", file=sys.stderr)
        return False, None


def _load_chaos(args):
    """``(ok, plan)`` for ``--chaos`` (``(True, None)`` when no plan is
    requested); prints every validation problem."""
    if not args.chaos:
        return True, None
    from .exec import ChaosPlanError, load_chaos_plan

    try:
        return True, load_chaos_plan(args.chaos)
    except OSError as exc:
        print(f"cannot read chaos plan: {exc}", file=sys.stderr)
        return False, None
    except ChaosPlanError as exc:
        print(f"invalid chaos plan {args.chaos}:", file=sys.stderr)
        for line in str(exc).splitlines():
            print(f"  {line}", file=sys.stderr)
        return False, None


def _execution_failed(exc, progress) -> int:
    """Report a sweep that drained with poison units (or a bad journal).

    Quarantined units already have everything else journaled/cached, so
    the message says exactly what failed and a rerun recomputes only
    those units.
    """
    from .exec import JournalError

    print(str(exc), file=sys.stderr)
    if progress is not None:
        progress.close()
    return 2 if isinstance(exc, JournalError) else 1


def _build_cache(args):
    """The result cache implied by ``--cache-dir``/``--no-cache``."""
    if args.no_cache:
        return None
    from .exec import ResultCache, code_fingerprint, default_cache_root

    return ResultCache(args.cache_dir or default_cache_root(),
                       code_fingerprint())


def _delegate(module: str, function: str):
    """A verb with its own parser in ``module``, imported on use."""
    def handler(argv: List[str]) -> int:
        from importlib import import_module

        return getattr(import_module(module, __package__), function)(argv)
    return handler


#: Leading words that are commands, not experiment ids; each handler
#: takes the rest of argv.  Experiment ids are positional, which is why
#: this is a table rather than argparse subparsers.
_VERBS = {
    "run": main,                                   # optional noise word
    "--list": lambda argv: main(["list", *argv]),  # muscle memory
    "serve": _delegate(".server", "serve_main"),
    "ledger": _delegate(".obs.ledger", "ledger_main"),
    **{name: functools.partial(_main, command=scope)
       for name, scope in SCOPES.items()},
}


if __name__ == "__main__":  # pragma: no cover
    raise SystemExit(main())

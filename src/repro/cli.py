"""Command-line entry point: ``python -m repro <experiment> [options]``.

Examples::

    python -m repro list                      # show available experiments
    python -m repro fig4                      # regenerate Figure 4
    python -m repro all                       # regenerate everything (slow)
    python -m repro scale128 --jobs 4         # fan the sweep out to 4 procs
    python -m repro fig7 --cache-stats        # show result-cache hit rates
    python -m repro bench --quick --jobs 2    # serial/parallel/cached bench
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
    python -m repro bench --compare benchmarks/BENCH_baseline.json
    python -m repro fig3 --jobs 4 --journal j.jsonl   # crash-safe journal
    python -m repro fig3 --jobs 4 --journal j.jsonl --resume  # pick up
    python -m repro fig3 --jobs 4 --unit-timeout 60 --retries 3
    python -m repro fig3 --jobs 4 --chaos examples/chaos/kill_and_corrupt.json
    python -m repro bench --quick --ledger     # append to the perf ledger
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
from .experiments import list_experiments
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
        help="experiment id (fig2, fig3, ...), 'list', 'all', 'bench' "
             "(serial vs parallel vs cached wall-clock benchmark), "
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
        help="seed python/numpy RNGs for reproducible workload generation")
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
        "--checkpoint", metavar="PATH", default=None,
        help="persist each completed sweep point of a long experiment to "
             "PATH (JSON), enabling --resume after a kill")
    parser.add_argument(
        "--journal", metavar="PATH", default=None,
        help="crash-safe sweep journal: append every unit completion to "
             "PATH (JSONL, fsync-ed) so --resume replays an interrupted "
             "--jobs N sweep exactly where it died; fabric experiments "
             "only")
    parser.add_argument(
        "--resume", action="store_true",
        help="with --checkpoint and/or --journal: skip points already "
             "recorded on disk")
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
             "machinery; $REPRO_CHAOS sets a default")
    parser.add_argument(
        "--jobs", type=int, default=None, metavar="N",
        help="worker processes for unit-aware experiments (default: 1, "
             "serial in-process; 'bench' defaults to 2)")
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
    parser.add_argument(
        "--bench-out", metavar="PATH", default="BENCH_exec.json",
        help="with 'bench': where to write the benchmark JSON "
             "(default: BENCH_exec.json)")
    parser.add_argument(
        "--bench-experiments", metavar="IDS", default=None,
        help="with 'bench': comma-separated experiment ids to benchmark "
             "(default: every unit-aware experiment)")
    parser.add_argument(
        "--compare", metavar="PATH", default=None,
        help="with 'bench': baseline BENCH_exec.json to diff the fresh "
             "measurements against; exits 1 when any experiment's serial "
             "path regressed past the noise threshold or a fidelity "
             "anchor is out of tolerance")
    parser.add_argument(
        "--bench-diff-out", metavar="PATH", default=None,
        help="with 'bench --compare': also write a markdown regression "
             "report to PATH")
    parser.add_argument(
        "--ledger", nargs="?", const="benchmarks/LEDGER.jsonl",
        default=None, metavar="PATH",
        help="append one checksummed record (timings, throughput, "
             "fidelity residuals, git provenance) to the longitudinal "
             "performance ledger at PATH (bare --ledger uses "
             "benchmarks/LEDGER.jsonl); works with 'bench' and with "
             "--metrics runs; inspect with 'python -m repro ledger'")
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
             "PATH, or to stderr when PATH is omitted; fabric "
             "experiments only")
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


def _seed_rngs(seed: int) -> None:
    import random

    random.seed(seed)
    try:
        import numpy

        numpy.random.seed(seed)
    except ImportError:  # pragma: no cover - numpy is a core dependency
        pass


def _unknown_experiment(exp_id: str) -> int:
    print(f"unknown experiment {exp_id!r}", file=sys.stderr)
    print("valid experiments:", file=sys.stderr)
    commands = {
        **list_experiments(),
        "timeline": "ASCII Gantt view of a trace",
        **{name: scope.summary for name, scope in SCOPES.items()},
        "serve": "run the simulation job server (repro.sdk clients)",
        "top": "live dashboard for a running job server",
        "ledger": "longitudinal performance-and-fidelity ledger",
    }
    for name, title in commands.items():
        print(f"  {name:10s} {title}", file=sys.stderr)
    return 2


def _suffixed(path: str, exp_id: str, multi: bool) -> str:
    """Per-experiment output path when running more than one target."""
    if not multi:
        return path
    stem, dot, ext = path.rpartition(".")
    return f"{stem}.{exp_id}.{ext}" if dot else f"{path}.{exp_id}"


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
        print(render_timeline(events, title=args.trace))
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


def _scope_command(scope, args, config) -> int:
    """``python -m repro <scope> <experiment>`` (or ``--trace PATH``):
    one profiler's view of a live run, or of a saved trace."""
    import json as _json

    if args.trace:
        from .obs.export import load_trace_checked

        events = load_trace_checked(args.trace)
        if events is None:
            return 2
        doc = scope.from_trace(events)
        print(_json.dumps(doc, indent=2) if args.json
              else scope.render_trace(doc, title=args.trace))
        return 0
    if not args.experiment:
        print(f"{scope.name} needs an experiment id (e.g. 'python -m repro "
              f"{scope.name} fig3') or --trace PATH", file=sys.stderr)
        return 2
    from .experiments import resolve_experiment_id

    try:
        exp_id = resolve_experiment_id(args.experiment)
    except KeyError:
        return _unknown_experiment(args.experiment)
    profiler = scope.build(config, args)
    with scope.install(profiler):
        _run(exp_id, config=config, quick=args.quick)
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
    try:
        for scope in SCOPES.values():
            scope.check(args)
    except ValueError as exc:
        print(exc, file=sys.stderr)
        return 2
    if args.seed is not None:
        _seed_rngs(args.seed)
    config = spp1000(n_hypernodes=args.hypernodes)
    if command is not None:
        return _scope_command(command, args, config)
    if args.experiment is None:
        commands = ", ".join(f"'{name}'" for name in (
            "list", "all", "bench", "timeline", *SCOPES, "serve", "top",
            "ledger"))
        print(f"an experiment id (or {commands}) is required; try "
              "'python -m repro list'", file=sys.stderr)
        return 2
    if args.experiment == "list":
        from .exec import unit_count

        for exp_id, title in list_experiments().items():
            count = unit_count(exp_id, config, quick=args.quick)
            units = (f"{count:3d} units" if count is not None
                     else "in-process")
            print(f"{exp_id:10s} {units:>10s}  {title}")
        print("experiments with units are servable as streaming sweep "
              "jobs via 'python -m repro serve' (repro.sdk clients); "
              "in-process experiments run whole per job")
        return 0
    if args.experiment == "timeline":
        return _timeline(args)
    if args.experiment == "bench":
        return _bench(args, config)

    targets = (list(list_experiments()) if args.experiment == "all"
               else [args.experiment])
    if args.experiment != "all" and args.experiment not in list_experiments():
        return _unknown_experiment(args.experiment)

    fault_plan = None
    if args.faults:
        from .faults import FaultPlanError, load_plan

        try:
            fault_plan = load_plan(args.faults, config)
        except OSError as exc:
            print(f"cannot read fault plan: {exc}", file=sys.stderr)
            return 2
        except FaultPlanError as exc:
            print(f"invalid fault plan {args.faults}:", file=sys.stderr)
            for line in str(exc).splitlines():
                print(f"  {line}", file=sys.stderr)
            return 2

    ok, chaos_plan = _load_chaos(args)
    if not ok:
        return 2

    if args.resume and not (args.checkpoint or args.journal):
        print("--resume requires --checkpoint PATH and/or --journal PATH",
              file=sys.stderr)
        return 2
    checkpoint = None
    if args.checkpoint:
        from .experiments.checkpoint import Checkpoint, CheckpointError

        try:
            checkpoint = Checkpoint(args.checkpoint, resume=args.resume)
        except CheckpointError as exc:
            print(str(exc), file=sys.stderr)
            return 2

    multi = len(targets) > 1
    profiling = [scope for scope in SCOPES.values()
                 if getattr(args, scope.name)]
    observing = bool(args.trace or args.metrics or args.profile
                     or profiling)
    if args.ledger and not args.metrics:
        print("note: for experiment runs --ledger folds the --metrics "
              "manifest; add --metrics PATH (or use 'bench --ledger')",
              file=sys.stderr)
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
    from .exec import JournalError, UnitExecutionError, has_units

    jobs = args.jobs or 1
    cache = _build_cache(args)
    if cache is not None and any(has_units(t) for t in targets):
        from .exec import CacheRootError

        try:
            cache.check_root()
        except CacheRootError as exc:
            print(str(exc), file=sys.stderr)
            return 2
    policy = None
    if args.unit_timeout is not None or args.retries is not None:
        from .exec import ResiliencePolicy
        from .exec.resilience import DEFAULT_MAX_RETRIES

        policy = ResiliencePolicy(
            unit_timeout_s=args.unit_timeout,
            max_retries=(args.retries if args.retries is not None
                         else DEFAULT_MAX_RETRIES))
    progress = None
    if args.progress:
        from .exec import ProgressStream

        progress = ProgressStream(args.progress)
    for exp_id in targets:
        fabric = has_units(exp_id)
        report = None
        kwargs = {"config": config}
        if args.quick:
            kwargs["quick"] = True
        if checkpoint is not None and not fabric:
            import inspect

            from .experiments import get_experiment

            if "checkpoint" in inspect.signature(
                    get_experiment(exp_id)).parameters:
                kwargs["checkpoint"] = checkpoint
            else:
                print(f"note: experiment {exp_id!r} does not support "
                      "checkpointing; --checkpoint ignored",
                      file=sys.stderr)
        if not fabric and jobs > 1:
            print(f"note: experiment {exp_id!r} has no work-unit planner; "
                  "running in-process (--jobs ignored)", file=sys.stderr)
        if fault_plan is not None:
            from .faults import use_faults

            faults_ctx = use_faults(fault_plan)
        else:
            from contextlib import nullcontext

            faults_ctx = nullcontext()

        if progress is not None and not fabric:
            print(f"note: experiment {exp_id!r} has no work-unit planner; "
                  "--progress emits nothing for in-process runs",
                  file=sys.stderr)
        if not fabric and (args.journal or chaos_plan is not None):
            print(f"note: experiment {exp_id!r} has no work-unit planner; "
                  "--journal/--chaos apply to fabric experiments only",
                  file=sys.stderr)
        journal = None
        if args.journal and fabric:
            from .exec import JournalError, SweepJournal

            journal_path = _suffixed(args.journal, exp_id, multi)
            if not args.resume and os.path.exists(journal_path):
                try:  # like --checkpoint: no --resume means a fresh sweep
                    os.remove(journal_path)
                except OSError as exc:
                    print(f"cannot reset journal {journal_path}: {exc}",
                          file=sys.stderr)
                    return 2
            journal = SweepJournal(journal_path)

        def run_target():
            if fabric:
                from .exec import execute

                result, rep = execute(
                    exp_id, config, jobs=jobs, quick=args.quick,
                    cache=cache, checkpoint=checkpoint,
                    fault_plan=fault_plan, seed=args.seed,
                    observed=observing, progress=progress,
                    policy=policy, chaos=chaos_plan, journal=journal)
                return result, rep
            return _run(exp_id, **kwargs), None

        if observing:
            from contextlib import ExitStack

            from .obs import use_tracer, write_chrome_trace, write_metrics
            from .sim import Tracer

            tracer = Tracer(enabled=True)
            profilers = [(scope, scope.build(config, args))
                         for scope in profiling]
            try:
                with ExitStack() as stack:
                    stack.enter_context(use_tracer(tracer))
                    for scope, profiler in profilers:
                        stack.enter_context(scope.install(profiler))
                    stack.enter_context(faults_ctx)
                    result, report = run_target()
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
                    config=config, tracer=tracer,
                    execution=report.to_dict() if report else None,
                    **{scope.name: scope.block(profiler, args)
                       for scope, profiler in profilers
                       if scope.has_report(profiler)})
                write_metrics(manifest, path)
                print(f"metrics manifest written to {path}")
                if args.ledger:
                    _ledger_append(args.ledger, manifest,
                                   source="metrics")
        else:
            try:
                with faults_ctx:
                    result, report = run_target()
            except (JournalError, UnitExecutionError) as exc:
                return _execution_failed(exc, progress)
            print(result.render())
        if args.cache_stats:
            print()
            print(report.render() if report is not None
                  else f"[exec {exp_id}] ran in-process (no work-unit "
                       "planner); no cache involved")
        print()
    if progress is not None:
        progress.close()
    return 0


def _load_chaos(args):
    """``(ok, plan)`` for ``--chaos``/``$REPRO_CHAOS`` (``(True, None)``
    when no plan is requested); prints every validation problem."""
    chaos_source = args.chaos or os.environ.get("REPRO_CHAOS") or None
    if not chaos_source:
        return True, None
    from .exec import ChaosPlanError, load_chaos_plan

    try:
        return True, load_chaos_plan(chaos_source)
    except OSError as exc:
        print(f"cannot read chaos plan: {exc}", file=sys.stderr)
        return False, None
    except ChaosPlanError as exc:
        print(f"invalid chaos plan {chaos_source}:", file=sys.stderr)
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


def _ledger_append(path: str, doc, *, source=None) -> None:
    """Best-effort fold of ``doc`` into the ledger at ``path`` — an
    append failure warns but never fails the run that produced the
    measurements (the ledger observes, it does not gate here)."""
    from .obs.ledger import Ledger, LedgerError, fold_document

    try:
        record = Ledger(path).append(fold_document(doc, source=source))
        print(f"ledger record appended to {path} "
              f"(sha256 {record['sha256'][:12]}…)")
    except (LedgerError, OSError) as exc:
        print(f"ledger: could not append to {path}: {exc}",
              file=sys.stderr)


def _warn_stale_artifact(path: str) -> None:
    """One stderr line when an existing bench artifact at ``path`` was
    produced by a different tree (satellite of the ledger issue)."""
    import json as _json

    from .exec.bench import stale_artifact_warning

    try:
        with open(path, "r", encoding="utf-8") as fh:
            artifact = _json.load(fh)
    except (OSError, ValueError):
        return
    warning = stale_artifact_warning(artifact, path)
    if warning:
        print(warning, file=sys.stderr)


def _bench(args, config) -> int:
    """``python -m repro bench``: the serial/parallel/cached trajectory."""
    from .exec import ProgressStream
    from .exec.bench import render_bench, run_bench, write_bench

    jobs = args.jobs if args.jobs is not None else 2
    only = (args.bench_experiments.split(",")
            if args.bench_experiments else None)
    ok, chaos_plan = _load_chaos(args)
    if not ok:
        return 2
    if os.path.exists(args.bench_out):
        _warn_stale_artifact(args.bench_out)
    progress = ProgressStream(args.progress) if args.progress else None
    try:
        doc = run_bench(config, jobs=jobs, quick=args.quick,
                        experiment_ids=only, progress=progress,
                        chaos=chaos_plan)
    except ValueError as exc:
        print(f"bench: {exc}", file=sys.stderr)
        return 2
    finally:
        if progress is not None:
            progress.close()
    print(render_bench(doc))
    write_bench(doc, args.bench_out)
    print(f"\nbenchmark written to {args.bench_out}")
    if args.ledger:
        _ledger_append(args.ledger, doc, source="bench")
    if not args.compare:
        return 0
    return _bench_compare(doc, args)


def _bench_compare(doc, args) -> int:
    """Judge a fresh bench document against ``--compare BASELINE``."""
    import json as _json

    from .exec.bench import markdown_compare, stale_artifact_warning
    from .obs.ledger import judge, record_from_bench, render_verdict

    try:
        with open(args.compare, "r", encoding="utf-8") as fh:
            baseline = _json.load(fh)
    except OSError as exc:
        reason = exc.strerror or str(exc)
        print(f"cannot read bench baseline {args.compare}: {reason}",
              file=sys.stderr)
        return 2
    except ValueError as exc:
        print(f"cannot parse bench baseline {args.compare}: {exc}; "
              "expected a BENCH_exec.json written by 'python -m repro "
              "bench'", file=sys.stderr)
        return 2
    warning = stale_artifact_warning(baseline, args.compare)
    if warning:
        print(warning, file=sys.stderr)
    report = judge(record_from_bench(doc), [record_from_bench(baseline)])
    print()
    print(render_verdict(report))
    if args.bench_diff_out:
        with open(args.bench_diff_out, "w", encoding="utf-8") as fh:
            fh.write(markdown_compare(report, doc))
        print(f"\nregression report written to {args.bench_diff_out}")
    return 0 if report["pass"] else 1


def _run(exp_id: str, **kwargs):
    """Run an experiment, dropping kwargs its signature does not take."""
    import inspect

    from .experiments import get_experiment

    fn = get_experiment(exp_id)
    accepted = inspect.signature(fn).parameters
    usable = {k: v for k, v in kwargs.items() if k in accepted}
    return fn(**usable)


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
    "top": _delegate(".obs.top", "top_main"),
    "ledger": _delegate(".obs.ledger", "ledger_main"),
    **{name: functools.partial(_main, command=scope)
       for name, scope in SCOPES.items()},
}


if __name__ == "__main__":  # pragma: no cover
    raise SystemExit(main())

#!/usr/bin/env python
"""The paper's observability story on the simulated machine: spans with
counter deltas, the critical path, and host-time profiling.

Section 6 credits hardware counters and the CXpa profiler for making
optimisation tractable ("If vendors are going to insist on gambling
system performance on latency avoidance through caches, then they
should make available the means to observe the consequences").  This
example reproduces that workflow on the simulated machine.

    python examples/profiling_tools.py
"""

import json

from repro.core import spp1000
from repro.machine import Machine
from repro.obs import (
    CritScope,
    HostScope,
    build_manifest,
    render_timeline,
    scaled_config,
    timeline_from_tracer,
    use_critscope,
    use_hostscope,
    use_tracer,
)
from repro.runtime import Barrier, Placement, Runtime
from repro.sim import Tracer


def span_demo() -> None:
    """The repro.obs workflow end-to-end: ambient tracer, span API with
    counter deltas, metrics manifest, ASCII timeline."""
    print("=== repro.obs: spans, counter deltas, metrics manifest ===")
    config = spp1000(2)
    tracer = Tracer(enabled=True)
    with use_tracer(tracer):
        # Any Machine built inside this block picks up the ambient
        # tracer -- the same plumbing `python -m repro <exp> --trace`
        # uses.  The runtime then emits fork/join and barrier events.
        machine = Machine(config)
        runtime = Runtime(machine)
        barrier = Barrier(runtime, n_threads=4)

        def child(env, tid):
            for _ in range(2):
                yield env.compute(200 * (tid + 1))  # deliberate skew
                yield from barrier.wait(env)
            return tid

        def main(env):
            results = yield from env.fork_join(4, child, Placement.UNIFORM)
            return results

        runtime.run(main)

        # Explicit spans bracket ad-hoc work; begin() snapshots the
        # protocol counters and end() attributes the deltas.
        def epilogue():
            yield machine.load(0, machine.alloc(64).addr(0))

        with tracer.span(lambda: machine.sim.now, "epilogue", "demo"):
            machine.sim.run(until=machine.sim.process(epilogue()))

    print(render_timeline(timeline_from_tracer(tracer), width=64))
    manifest = build_manifest(tracer=tracer, config=config)
    fork_join = manifest["phases"]["fork_join"]
    print("manifest phases:", ", ".join(sorted(manifest["phases"])))
    print("epilogue counter deltas:",
          manifest["phases"]["epilogue"].get("counters", {}))
    print("fork_join imbalance: "
          f"{fork_join['imbalance']:.2f} over {fork_join['tracks']} tracks")
    print("instrumentation:",
          json.dumps(manifest["instrumentation"], indent=2))
    print()


def critscope_demo() -> None:
    """The critical-path workflow: attribute, project, validate.

    Mirrors `python -m repro critscope fig3 --what-if barrier_release=2`
    and then closes the loop the CLI cannot: actually re-running under
    the scaled config to check the projection (docs/critpath.md).
    """
    print("=== critscope: wait states, critical path, what-if ===")
    config = spp1000(2)

    def barrier_rounds(cfg):
        scope = CritScope(cfg)
        with use_critscope(scope):
            machine = Machine(cfg)
            runtime = Runtime(machine)
            barrier = Barrier(runtime, n_threads=8)

            def child(env, tid):
                for _ in range(3):
                    yield env.compute(150 * (tid + 1))  # deliberate skew
                    yield from barrier.wait(env)
                return tid

            def main(env):
                return (yield from env.fork_join(
                    8, child, Placement.UNIFORM))

            runtime.run(main)
        return scope

    scope = barrier_rounds(config)
    print(scope.render(title="critscope: 8-thread barrier rounds", top=5))

    # the Coz-style loop: project a 2x-faster barrier release, then
    # re-run with the release cost knobs actually halved and compare
    projection = scope.what_if("barrier_release", 2.0)
    rerun = barrier_rounds(scaled_config(config, "barrier_release", 2.0))
    actual = rerun.run_of_interest().makespan
    print(f"projected with 2x faster release: "
          f"{projection['projected_total_ns'] / 1e3:.1f} us; "
          f"actual re-run: {actual / 1e3:.1f} us "
          f"(error {abs(projection['projected_total_ns'] - actual) / actual:.1%})")
    print()


def hostscope_demo() -> None:
    """The host-time self-profile: where does *wall-clock* time go
    while the simulator runs, and how fast is it simulating?

    Mirrors `python -m repro hostscope fig2` on a small in-process
    workload (docs/hostscope.md has the region taxonomy).
    """
    print("=== hostscope: host wall-time per simulator subsystem ===")
    config = spp1000(2)
    hs = HostScope(config)
    with use_hostscope(hs), hs.profile():
        machine = Machine(config)
        runtime = Runtime(machine)
        barrier = Barrier(runtime, n_threads=8)

        def child(env, tid):
            for _ in range(3):
                yield env.compute(150 * (tid + 1))
                yield from barrier.wait(env)
            return tid

        def main(env):
            return (yield from env.fork_join(8, child, Placement.UNIFORM))

        runtime.run(main)

    print(hs.render(title="hostscope: 8-thread barrier rounds", top=5))
    doc = hs.to_dict()
    print(f"coverage: {doc['coverage']:.1%} of profiled wall time "
          f"attributed; throughput "
          f"{doc['throughput']['sim_mcycles_per_s']:.2f} Mcycles/s, "
          f"{doc['throughput']['events_per_s']:.0f} events/s\n")


if __name__ == "__main__":
    span_demo()
    critscope_demo()
    hostscope_demo()

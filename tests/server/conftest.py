"""Synthetic experiments + fixtures for the repro.server test suite.

The synthetic experiments are registered at module level (module-level
functions so ``--jobs N`` workers could resolve them) under ``_``
prefixes; ``unit_experiments()`` lists only the experiment table, so
they stay out of it.  Each one is
registered BOTH as a unit planner (``register_units``) and as an
experiment (``@register``) because the fabric's assemble step looks the
experiment up by id.
"""

import time

import pytest

from repro.exec.units import WorkUnit, register_units
from repro.experiments.base import ExperimentResult, register
from repro.server import ServerThread

# -- _srv_fast: deterministic, cheap; bit-identity + concurrency ---------

FAST_N = {True: 6, False: 12}


def _plan_fast(config, quick=False):
    return [WorkUnit("_srv_fast", f"f:{i}", {"i": i})
            for i in range(FAST_N[quick])]


def _run_fast(params, config):
    i = params["i"]
    return {"i": i, "value": i * i + 7 * i + config.n_hypernodes}


def _assemble_fast(config=None, quick=False, points=None):
    vals = [points.point(f"f:{i}",
                             lambda i=i: _run_fast({"i": i}, config))
            for i in range(FAST_N[quick])]
    return ExperimentResult(experiment_id="_srv_fast",
                            title="synthetic fast sweep",
                            data={"vals": vals})


# -- _srv_slow: 0.05s per unit; cancellation at a unit boundary ----------

SLOW_N = 60


def _plan_slow(config, quick=False):
    return [WorkUnit("_srv_slow", f"s:{i}", {"i": i})
            for i in range(SLOW_N)]


def _run_slow(params, config):
    time.sleep(0.05)
    return {"i": params["i"]}


def _assemble_slow(config=None, quick=False, points=None):
    vals = [points.point(f"s:{i}",
                             lambda i=i: _run_slow({"i": i}, config))
            for i in range(SLOW_N)]
    return ExperimentResult(experiment_id="_srv_slow",
                            title="synthetic slow sweep",
                            data={"vals": vals})


# -- _srv_many: 2000 trivial units; backpressure/coalescing --------------

MANY_N = 2000


def _plan_many(config, quick=False):
    return [WorkUnit("_srv_many", f"m:{i}", {"i": i})
            for i in range(MANY_N)]


def _run_many(params, config):
    return params["i"]


def _assemble_many(config=None, quick=False, points=None):
    vals = [points.point(f"m:{i}",
                             lambda i=i: _run_many({"i": i}, config))
            for i in range(MANY_N)]
    return ExperimentResult(experiment_id="_srv_many",
                            title="synthetic many-unit sweep",
                            data={"total": sum(vals)})


# -- _srv_stamp: returns wall-clock stamps; priority-order probes --------


def _plan_stamp(config, quick=False):
    return [WorkUnit("_srv_stamp", "t:0", {"i": 0})]


def _run_stamp(params, config):
    time.sleep(0.02)
    return {"ran_at": time.monotonic()}


def _assemble_stamp(config=None, quick=False, points=None):
    val = points.point("t:0", lambda: _run_stamp({"i": 0}, config))
    return ExperimentResult(experiment_id="_srv_stamp",
                            title="synthetic run-order stamp",
                            data=val)


def _register_all():
    register_units("_srv_fast", _plan_fast, _run_fast)
    register("_srv_fast", "synthetic fast sweep")(_assemble_fast)
    register_units("_srv_slow", _plan_slow, _run_slow)
    register("_srv_slow", "synthetic slow sweep")(_assemble_slow)
    register_units("_srv_many", _plan_many, _run_many)
    register("_srv_many", "synthetic many-unit sweep")(_assemble_many)
    register_units("_srv_stamp", _plan_stamp, _run_stamp)
    register("_srv_stamp", "synthetic run-order stamp")(_assemble_stamp)


try:
    _register_all()
except ValueError:
    pass  # already registered by a prior conftest import in this process


# -- fixtures ------------------------------------------------------------


@pytest.fixture
def cache_dir(tmp_path):
    return str(tmp_path / "cache")


@pytest.fixture
def server(cache_dir):
    """A running server on a background thread with a private cache."""
    srv = ServerThread(workers=2, cache_dir=cache_dir).start()
    yield srv
    srv.stop(drain=False)


@pytest.fixture
def uncached_server():
    """A cache-less server (every job runs cold; no digest overlap)."""
    srv = ServerThread(workers=1, no_cache=True).start()
    yield srv
    srv.stop(drain=False)

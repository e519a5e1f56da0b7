"""Context-local install slots: an install on one thread stays there.

Every ``use_*``/``active_*`` pair (tracer, fault plan, memscope,
critscope, hostscope, trace context) is one
:class:`repro.core.ambient.Slot`, so a value installed on one thread is
invisible on every other.  That is what lets the job server run
observed and fault-injected jobs side by side.
"""

import threading
from contextlib import contextmanager

import pytest

from repro.core import spp1000
from repro.experiments.fig3_barrier import barrier_metrics_us
from repro.faults import active_fault_plan, ring_loss_plan, use_faults
from repro.obs import (
    CritScope,
    HostScope,
    MemScope,
    TraceContext,
    active_critscope,
    active_hostscope,
    active_memscope,
    active_tracectx,
    active_tracer,
    use_critscope,
    use_hostscope,
    use_memscope,
    use_tracectx,
    use_tracer,
)
from repro.runtime import Placement
from repro.sim import Tracer

#: slot name -> (use, active, a value to install)
SLOTS = {
    "tracer": (use_tracer, active_tracer, Tracer),
    "faults": (use_faults, active_fault_plan, lambda: ring_loss_plan(1)),
    "memscope": (use_memscope, active_memscope, MemScope),
    "critscope": (use_critscope, active_critscope, CritScope),
    "hostscope": (use_hostscope, active_hostscope, HostScope),
    "tracectx": (use_tracectx, active_tracectx, TraceContext),
}


def _join(thread):
    thread.join(timeout=300)
    assert not thread.is_alive(), "worker thread did not finish"


@contextmanager
def held_on_thread(use, active, value):
    """Hold ``with use(value):`` open on another thread for the block;
    yields whether that thread saw ``value`` installed."""
    installed, release = threading.Event(), threading.Event()
    seen = []

    def hold():
        with use(value):
            seen.append(active() is value)
            installed.set()
            release.wait(timeout=300)

    thread = threading.Thread(target=hold)
    thread.start()
    try:
        assert installed.wait(timeout=60)
        yield seen
    finally:
        release.set()
        _join(thread)


def on_other_thread(fn):
    """``fn()`` evaluated on a fresh thread."""
    out = []
    thread = threading.Thread(target=lambda: out.append(fn()))
    thread.start()
    _join(thread)
    return out[0]


@pytest.mark.parametrize("name", sorted(SLOTS))
def test_install_is_invisible_to_other_threads(name):
    use, active, make = SLOTS[name]
    with held_on_thread(use, active, make()) as seen:
        assert seen == [True]
        assert on_other_thread(active) is None
        assert active() is None


def test_fault_plan_held_on_one_thread_leaves_fig3_on_another_alone():
    """``degraded`` holds ring-loss plans open while it runs; a fig3
    point computed meanwhile on another thread (another server job)
    must come out exactly as in a serial run."""
    config = spp1000(2)

    def lilo():
        return barrier_metrics_us(16, Placement.UNIFORM, config,
                                  3)["last_in_last_out"]

    serial = lilo()
    with use_faults(ring_loss_plan(2)):
        assert lilo() != serial       # the plan does move this point
    with held_on_thread(use_faults, active_fault_plan, ring_loss_plan(2)):
        assert on_other_thread(lilo) == serial

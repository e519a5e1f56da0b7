"""Deterministic fault injection and degraded-mode operation.

The paper evaluates the SPP-1000 purely on the happy path; this package
makes the simulated machine a platform for the complementary question —
what do the barrier, message-passing, and application curves look like
when an SCI ring loses a link, a CPU or hypernode dies mid-computation,
or PVM messages are dropped on the wire?

Pieces:

* :mod:`repro.faults.plan` — :class:`FaultPlan`: a JSON-loadable,
  seedable schedule of fault events (ring link failures/recoveries,
  CPU/hypernode failures, probabilistic PVM message loss/corruption)
  plus PVM retry and watchdog policies, with strict validation
  (:func:`validate_fault_plan` checks a plan file).
* :mod:`repro.faults.state` — :class:`FaultState`: the per-machine
  injector that replays a plan at its simulated timestamps, reroutes
  SCI traffic around failed rings, and purges coherence state held by
  failed hypernodes.
* :mod:`repro.faults.watchdog` — :class:`Watchdog`: a simulated-time
  deadlock/stall detector that upgrades a bare ``DeadlockError`` into a
  diagnostic report naming every blocked waiter.

Zero-cost contract: with no fault plan attached (or an *empty* plan),
every experiment output is bit-identical to a run without this layer —
the machine model pays one ``is None`` check per operation and nothing
else (asserted by ``tests/faults/test_zero_cost.py``).
"""

from .plan import (
    FaultEvent,
    FaultPlan,
    FaultPlanError,
    PvmPolicy,
    WatchdogPolicy,
    active_fault_plan,
    load_plan,
    plan_from_dict,
    ring_loss_plan,
    use_faults,
    validate_fault_plan,
    validate_plan_dict,
)
from .state import FaultState, NetworkPartitionedError
from .watchdog import StallError, Watchdog

__all__ = [
    "FaultEvent", "FaultPlan", "FaultPlanError", "PvmPolicy",
    "WatchdogPolicy", "active_fault_plan", "load_plan", "plan_from_dict",
    "ring_loss_plan", "use_faults", "validate_plan_dict",
    "validate_fault_plan",
    "FaultState", "NetworkPartitionedError",
    "Watchdog", "StallError",
]

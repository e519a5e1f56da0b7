"""Fault plans: JSON-loadable, validated schedules of injected faults.

A plan is a list of events, each at a simulated timestamp (``t_us``,
microseconds of simulated time, non-decreasing), plus optional policies
for the PVM retry protocol and the runtime watchdog::

    {
      "description": "lose two rings at t=0, drop 20% of PVM messages",
      "seed": 7,
      "events": [
        {"t_us": 0,   "kind": "ring_fail",      "ring": 0},
        {"t_us": 0,   "kind": "pvm_loss",       "p": 0.2},
        {"t_us": 150, "kind": "ring_recover",   "ring": 0},
        {"t_us": 200, "kind": "cpu_fail",       "cpu": 11},
        {"t_us": 300, "kind": "hypernode_fail", "hypernode": 1}
      ],
      "pvm":      {"timeout_us": 50, "max_retries": 4, "backoff": 2.0},
      "watchdog": {"interval_us": 200, "timeout_us": 5000}
    }

``seed`` drives the deterministic RNG behind probabilistic message
loss/corruption, so a faulted run is exactly reproducible.  A
``pvm_loss`` event *replaces* all three probabilities (an omitted one
resets to 0), so ``{"kind": "pvm_loss"...}`` with only ``"p"`` given
clears any earlier corruption window.

Validation (:func:`validate_plan_dict`) is strict and actionable:
unknown keys, out-of-range ring/CPU/hypernode ids, non-monotonic
timestamps, and out-of-range probabilities are all reported with every
problem listed, not just the first.
"""

from __future__ import annotations

import json
from dataclasses import dataclass, field
from typing import Dict, List, Optional, Tuple

from ..core.ambient import Slot

__all__ = [
    "FaultEvent", "FaultPlan", "FaultPlanError", "PvmPolicy",
    "WatchdogPolicy", "validate_plan_dict", "plan_from_dict", "load_plan",
    "ring_loss_plan", "active_fault_plan", "use_faults",
]


class FaultPlanError(ValueError):
    """A fault-plan file or dict failed validation; str() lists every
    problem found, one per line."""


#: event kind -> the id field it requires
KINDS: Dict[str, Tuple[str, ...]] = {
    "ring_fail": ("ring",),
    "ring_recover": ("ring",),
    "cpu_fail": ("cpu",),
    "hypernode_fail": ("hypernode",),
    "pvm_loss": (),
}
_EVENT_KEYS = {"t_us", "kind", "ring", "cpu", "hypernode",
               "p", "corrupt_p", "ack_loss_p"}
_PROB_KEYS = ("p", "corrupt_p", "ack_loss_p")
_TOP_KEYS = {"description", "seed", "events", "pvm", "watchdog"}
_PVM_KEYS = {"timeout_us", "max_retries", "backoff"}
_WD_KEYS = {"interval_us", "timeout_us"}


@dataclass(frozen=True)
class FaultEvent:
    """One scheduled fault occurrence (time in simulated nanoseconds)."""

    t_ns: float
    kind: str
    ring: Optional[int] = None
    cpu: Optional[int] = None
    hypernode: Optional[int] = None
    p: float = 0.0           #: pvm_loss: probability a message is dropped
    corrupt_p: float = 0.0   #: pvm_loss: probability it arrives corrupted
    ack_loss_p: float = 0.0  #: pvm_loss: delivered but acknowledgement lost

    def to_dict(self) -> Dict:
        out: Dict = {"t_us": self.t_ns / 1000.0, "kind": self.kind}
        for key in ("ring", "cpu", "hypernode"):
            value = getattr(self, key)
            if value is not None:
                out[key] = value
        if self.kind == "pvm_loss":
            for key in _PROB_KEYS:
                out[key] = getattr(self, key)
        return out


@dataclass(frozen=True)
class PvmPolicy:
    """Per-send timeout / bounded exponential-backoff retry parameters."""

    timeout_us: float = 50.0   #: wait for an acknowledgement per attempt
    max_retries: int = 4       #: retransmissions after the first attempt
    backoff: float = 2.0       #: timeout multiplier per retry


@dataclass(frozen=True)
class WatchdogPolicy:
    """Simulated-time stall-detector tuning."""

    interval_us: float = 200.0    #: how often the watchdog checks waiters
    timeout_us: float = 5000.0    #: blocked longer than this => stalled


@dataclass(frozen=True)
class FaultPlan:
    """A validated, immutable schedule of fault events and policies."""

    events: Tuple[FaultEvent, ...] = ()
    seed: int = 0
    pvm: PvmPolicy = field(default_factory=PvmPolicy)
    watchdog: Optional[WatchdogPolicy] = None
    description: str = ""

    @property
    def is_empty(self) -> bool:
        return not self.events

    def to_dict(self) -> Dict:
        out: Dict = {"seed": self.seed,
                     "events": [ev.to_dict() for ev in self.events]}
        if self.description:
            out["description"] = self.description
        out["pvm"] = {"timeout_us": self.pvm.timeout_us,
                      "max_retries": self.pvm.max_retries,
                      "backoff": self.pvm.backoff}
        if self.watchdog is not None:
            out["watchdog"] = {"interval_us": self.watchdog.interval_us,
                               "timeout_us": self.watchdog.timeout_us}
        return out


def _is_num(value) -> bool:
    return isinstance(value, (int, float)) and not isinstance(value, bool)


def _is_int(value) -> bool:
    return isinstance(value, int) and not isinstance(value, bool)


def validate_plan_dict(data: Dict, config=None) -> List[str]:
    """Every problem with a plan dict, as actionable messages ([] = valid).

    ``config`` (a :class:`~repro.core.config.MachineConfig`) enables the
    range checks for ring/CPU/hypernode ids; without it only structural
    checks run.
    """
    errors: List[str] = []
    if not isinstance(data, dict):
        return [f"fault plan must be a JSON object, got "
                f"{type(data).__name__}"]
    for key in sorted(set(data) - _TOP_KEYS):
        errors.append(f"unknown key {key!r} "
                      f"(valid: {', '.join(sorted(_TOP_KEYS))})")
    if "seed" in data and not _is_int(data["seed"]):
        errors.append(f"seed must be an integer, got {data['seed']!r}")

    events = data.get("events", [])
    if not isinstance(events, list):
        errors.append(f"events must be a list, got {type(events).__name__}")
        events = []
    prev_t = None
    for i, ev in enumerate(events):
        where = f"events[{i}]"
        if not isinstance(ev, dict):
            errors.append(f"{where}: must be an object, got "
                          f"{type(ev).__name__}")
            continue
        for key in sorted(set(ev) - _EVENT_KEYS):
            errors.append(f"{where}: unknown key {key!r} "
                          f"(valid: {', '.join(sorted(_EVENT_KEYS))})")
        kind = ev.get("kind")
        if kind not in KINDS:
            errors.append(f"{where}: kind {kind!r} is not one of "
                          f"{', '.join(sorted(KINDS))}")
            continue
        t_us = ev.get("t_us")
        if not _is_num(t_us) or t_us < 0:
            errors.append(f"{where}: t_us must be a non-negative number "
                          f"of simulated microseconds, got {t_us!r}")
        elif prev_t is not None and t_us < prev_t:
            errors.append(
                f"{where}: timestamp {t_us} us precedes the previous "
                f"event at {prev_t} us; events must be listed in "
                "non-decreasing time order")
        else:
            prev_t = t_us
        # the id field this kind requires, and no id field it does not
        for required in KINDS[kind]:
            if required not in ev:
                errors.append(f"{where}: kind {kind!r} requires the "
                              f"{required!r} field")
        for id_field, limit, noun in [
                ("ring", getattr(config, "n_rings", None), "rings"),
                ("cpu", getattr(config, "n_cpus", None), "CPUs"),
                ("hypernode", getattr(config, "n_hypernodes", None),
                 "hypernodes")]:
            if id_field not in ev:
                continue
            if id_field not in KINDS[kind]:
                errors.append(f"{where}: {id_field!r} is not valid for "
                              f"kind {kind!r}")
                continue
            value = ev[id_field]
            if not _is_int(value) or value < 0:
                errors.append(f"{where}: {id_field} must be a non-negative "
                              f"integer, got {value!r}")
            elif limit is not None and value >= limit:
                errors.append(f"{where}: {id_field} {value} out of range "
                              f"(machine has {limit} {noun}: 0..{limit - 1})")
        if kind == "pvm_loss":
            given = [k for k in _PROB_KEYS if k in ev]
            if not given:
                errors.append(f"{where}: pvm_loss sets no probability; "
                              "give p, corrupt_p, or ack_loss_p")
            for key in given:
                value = ev[key]
                if not _is_num(value) or not 0.0 <= value <= 1.0:
                    errors.append(f"{where}: {key} must be a probability "
                                  f"in [0, 1], got {value!r}")
        else:
            for key in _PROB_KEYS:
                if key in ev:
                    errors.append(f"{where}: {key!r} is only valid for "
                                  "kind 'pvm_loss'")

    pvm = data.get("pvm")
    if pvm is not None:
        if not isinstance(pvm, dict):
            errors.append("pvm must be an object")
        else:
            for key in sorted(set(pvm) - _PVM_KEYS):
                errors.append(f"pvm: unknown key {key!r} "
                              f"(valid: {', '.join(sorted(_PVM_KEYS))})")
            if "timeout_us" in pvm and (not _is_num(pvm["timeout_us"])
                                        or pvm["timeout_us"] <= 0):
                errors.append("pvm: timeout_us must be a positive number "
                              f"of microseconds, got {pvm['timeout_us']!r}")
            if "max_retries" in pvm and (not _is_int(pvm["max_retries"])
                                         or pvm["max_retries"] < 0):
                errors.append("pvm: max_retries must be a non-negative "
                              f"integer, got {pvm['max_retries']!r}")
            if "backoff" in pvm and (not _is_num(pvm["backoff"])
                                     or pvm["backoff"] < 1.0):
                errors.append("pvm: backoff must be a number >= 1, "
                              f"got {pvm['backoff']!r}")

    wd = data.get("watchdog")
    if wd is not None:
        if not isinstance(wd, dict):
            errors.append("watchdog must be an object")
        else:
            for key in sorted(set(wd) - _WD_KEYS):
                errors.append(f"watchdog: unknown key {key!r} "
                              f"(valid: {', '.join(sorted(_WD_KEYS))})")
            for key in _WD_KEYS:
                if key in wd and (not _is_num(wd[key]) or wd[key] <= 0):
                    errors.append(f"watchdog: {key} must be a positive "
                                  f"number of microseconds, got {wd[key]!r}")
    return errors


def plan_from_dict(data: Dict, config=None) -> FaultPlan:
    """Build a :class:`FaultPlan`; raises :class:`FaultPlanError` listing
    every validation problem."""
    errors = validate_plan_dict(data, config)
    if errors:
        raise FaultPlanError("\n".join(errors))
    events = tuple(
        FaultEvent(
            t_ns=float(ev["t_us"]) * 1000.0,
            kind=ev["kind"],
            ring=ev.get("ring"),
            cpu=ev.get("cpu"),
            hypernode=ev.get("hypernode"),
            p=float(ev.get("p", 0.0)),
            corrupt_p=float(ev.get("corrupt_p", 0.0)),
            ack_loss_p=float(ev.get("ack_loss_p", 0.0)),
        )
        for ev in data.get("events", []))
    pvm = PvmPolicy(**{k: data["pvm"][k] for k in _PVM_KEYS
                       if k in data.get("pvm", {})}) \
        if "pvm" in data else PvmPolicy()
    watchdog = WatchdogPolicy(**{k: data["watchdog"][k] for k in _WD_KEYS
                                 if k in data["watchdog"]}) \
        if data.get("watchdog") is not None else None
    return FaultPlan(events=events, seed=int(data.get("seed", 0)), pvm=pvm,
                     watchdog=watchdog,
                     description=str(data.get("description", "")))


def load_plan(path: str, config=None) -> FaultPlan:
    """Load and validate a fault-plan JSON file."""
    try:
        with open(path, "r", encoding="utf-8") as fh:
            data = json.load(fh)
    except json.JSONDecodeError as exc:
        raise FaultPlanError(f"{path} is not valid JSON: {exc}") from exc
    return plan_from_dict(data, config)


def ring_loss_plan(n_rings_failed: int, t_us: float = 0.0,
                   **plan_kwargs) -> FaultPlan:
    """A plan failing rings ``0 .. n_rings_failed-1`` at ``t_us``."""
    events = tuple(FaultEvent(t_ns=t_us * 1000.0, kind="ring_fail", ring=r)
                   for r in range(n_rings_failed))
    return FaultPlan(events=events, **plan_kwargs)


# ---------------------------------------------------------------------------
# Ambient fault plan: lets the CLI's --faults flag (or an experiment's
# scenario loop) reach machines built deep inside experiment code, exactly
# like repro.sim.trace.use_tracer does for tracers.  Installing None masks
# an outer plan (an explicit "no faults" scope).
# ---------------------------------------------------------------------------

_PLAN: Slot[FaultPlan] = Slot("repro.fault_plan")

#: the plan installed by :func:`use_faults` in this context, or None
active_fault_plan = _PLAN.get
#: ``with use_faults(plan):`` — a :class:`~repro.machine.system.Machine`
#: built inside (without an explicit ``faults=``) adopts ``plan``;
#: ``use_faults(None)`` masks an outer plan
use_faults = _PLAN.use

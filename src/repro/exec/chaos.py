"""Deterministic host-chaos plans: scripted worker kills, delays,
cache corruption, and return-path drops.

Where :mod:`repro.faults` injects faults into the *simulated* machine,
a chaos plan injects faults into the *host-level* execution fabric —
the worker processes and cache files of a ``--jobs N`` sweep — so the
resilience machinery (:mod:`repro.exec.resilience`) can be exercised
deterministically, in CI, on every push::

    {
      "description": "kill two workers, corrupt a cache entry",
      "seed": 0,
      "faults": [
        {"kind": "kill_worker",   "unit": 0},
        {"kind": "kill_worker",   "unit": 4},
        {"kind": "corrupt_cache", "unit": 1},
        {"kind": "delay_unit",    "unit": 2, "seconds": 0.1},
        {"kind": "drop_return",   "key": "uniform:8"}
      ]
    }

Each fault targets one work unit, either by plan-order index
(``unit``) or by exact point key (``key``), and fires on the listed
``attempts`` (default: only the first), so a retried unit always
recovers.  ``p`` makes a fault probabilistic; the plan ``seed`` drives
the RNG that decides, at plan-resolution time, whether it fires — the
same plan + seed + sweep always injects the same faults.

Kinds:

* ``kill_worker`` — the worker computing the unit exits hard
  (``os._exit``) mid-unit, exactly like an OOM kill;
* ``delay_unit`` — the unit's computation is delayed ``seconds`` of
  host time (drive it past ``--unit-timeout`` to exercise the
  hung-worker detector);
* ``corrupt_cache`` — the unit's on-disk cache entry payload is
  tampered with just before the fabric reads it (a no-op when no entry
  exists yet), exercising checksum verification and quarantine;
* ``drop_return`` — the unit computes successfully but its result is
  dropped on the way back to the caller (a lost pipe write).

The pinned contract: a chaos run that completes is **bit-identical**
to the clean serial run.  Chaos only ever perturbs *host* execution;
every recomputation is the same pure function of (params, config,
fault plan, seed).

Validation follows the :mod:`repro.faults.plan` conventions: strict,
actionable, and exhaustive — every problem in the plan is reported,
not just the first.  ``python -m repro <exp> --chaos PLAN.json``
activates a plan.
"""

from __future__ import annotations

import json
import random
from dataclasses import dataclass
from typing import Dict, List, Optional, Tuple

__all__ = ["ChaosFault", "ChaosPlan", "ChaosPlanError", "CHAOS_KINDS",
           "validate_chaos_dict", "chaos_from_dict",
           "load_chaos_plan", "corrupt_cache_entry"]

#: kinds injected inside worker processes (resolved spec ships to workers)
WORKER_KINDS = ("kill_worker", "delay_unit", "drop_return")
CHAOS_KINDS = WORKER_KINDS + ("corrupt_cache",)

_TOP_KEYS = {"description", "seed", "faults"}
_FAULT_KEYS = {"kind", "unit", "key", "seconds", "attempts", "p"}


class ChaosPlanError(ValueError):
    """A chaos-plan file or dict failed validation; str() lists every
    problem found, one per line."""


@dataclass(frozen=True)
class ChaosFault:
    """One scripted host fault aimed at one work unit."""

    kind: str
    unit: Optional[int] = None     #: plan-order index of the target unit
    key: Optional[str] = None      #: or the exact point key
    seconds: float = 0.0           #: delay_unit: host seconds to stall
    attempts: Tuple[int, ...] = (1,)  #: attempt numbers the fault fires on
    p: float = 1.0                 #: firing probability (seeded)

    def to_dict(self) -> Dict:
        out: Dict = {"kind": self.kind}
        if self.unit is not None:
            out["unit"] = self.unit
        if self.key is not None:
            out["key"] = self.key
        if self.kind == "delay_unit":
            out["seconds"] = self.seconds
        if self.attempts != (1,):
            out["attempts"] = list(self.attempts)
        if self.p != 1.0:
            out["p"] = self.p
        return out


@dataclass(frozen=True)
class ChaosPlan:
    """A validated, immutable schedule of host faults."""

    faults: Tuple[ChaosFault, ...] = ()
    seed: int = 0
    description: str = ""

    @property
    def is_empty(self) -> bool:
        return not self.faults

    def to_dict(self) -> Dict:
        out: Dict = {"seed": self.seed,
                     "faults": [f.to_dict() for f in self.faults]}
        if self.description:
            out["description"] = self.description
        return out

    def resolve(self, units) -> Dict[str, List[Dict]]:
        """Pin every fault to a concrete unit key for this sweep.

        Returns ``{unit_key: [fault spec dict, ...]}`` with
        probabilistic faults already decided by the plan ``seed`` —
        the dict is plain data, safe to ship to worker processes.
        Index targets beyond the sweep and key targets naming no
        planned unit resolve to nothing (a plan written for the full
        sweep still loads under ``--quick``).
        """
        rng = random.Random(self.seed)
        keys = [u.key for u in units]
        known = set(keys)
        resolved: Dict[str, List[Dict]] = {}
        for fault in self.faults:
            # One rng draw per probabilistic fault, in plan order, so
            # firing decisions never depend on which targets resolve.
            fires = True if fault.p >= 1.0 else rng.random() < fault.p
            if fault.unit is not None:
                if fault.unit >= len(keys):
                    continue
                target = keys[fault.unit]
            else:
                if fault.key not in known:
                    continue
                target = fault.key
            if not fires:
                continue
            resolved.setdefault(target, []).append({
                "kind": fault.kind, "seconds": fault.seconds,
                "attempts": list(fault.attempts)})
        return resolved


def _is_num(value) -> bool:
    return isinstance(value, (int, float)) and not isinstance(value, bool)


def _is_int(value) -> bool:
    return isinstance(value, int) and not isinstance(value, bool)


def validate_chaos_dict(data: Dict) -> List[str]:
    """Every problem with a chaos-plan dict, as actionable messages
    ([] = valid), in the :func:`repro.faults.validate_plan_dict` style."""
    errors: List[str] = []
    if not isinstance(data, dict):
        return [f"chaos plan must be a JSON object, got "
                f"{type(data).__name__}"]
    for key in sorted(set(data) - _TOP_KEYS):
        errors.append(f"unknown key {key!r} "
                      f"(valid: {', '.join(sorted(_TOP_KEYS))})")
    if "seed" in data and not _is_int(data["seed"]):
        errors.append(f"seed must be an integer, got {data['seed']!r}")
    faults = data.get("faults", [])
    if not isinstance(faults, list):
        errors.append(f"faults must be a list, got {type(faults).__name__}")
        faults = []
    for i, fault in enumerate(faults):
        where = f"faults[{i}]"
        if not isinstance(fault, dict):
            errors.append(f"{where}: must be an object, got "
                          f"{type(fault).__name__}")
            continue
        for key in sorted(set(fault) - _FAULT_KEYS):
            errors.append(f"{where}: unknown key {key!r} "
                          f"(valid: {', '.join(sorted(_FAULT_KEYS))})")
        kind = fault.get("kind")
        if kind not in CHAOS_KINDS:
            errors.append(f"{where}: kind {kind!r} is not one of "
                          f"{', '.join(sorted(CHAOS_KINDS))}")
            continue
        has_unit, has_key = "unit" in fault, "key" in fault
        if has_unit == has_key:
            errors.append(
                f"{where}: target exactly one of 'unit' (plan-order "
                f"index) or 'key' (exact point key), got "
                f"{'both' if has_unit else 'neither'}")
        if has_unit and (not _is_int(fault["unit"]) or fault["unit"] < 0):
            errors.append(f"{where}: unit must be a non-negative plan-order "
                          f"index, got {fault['unit']!r}")
        if has_key and not isinstance(fault["key"], str):
            errors.append(f"{where}: key must be a point-key string, got "
                          f"{fault['key']!r}")
        if "seconds" in fault:
            if kind != "delay_unit":
                errors.append(f"{where}: 'seconds' is only valid for kind "
                              "'delay_unit'")
            elif not _is_num(fault["seconds"]) or fault["seconds"] < 0:
                errors.append(f"{where}: seconds must be a non-negative "
                              f"number, got {fault['seconds']!r}")
        elif kind == "delay_unit":
            errors.append(f"{where}: kind 'delay_unit' requires the "
                          "'seconds' field")
        if "attempts" in fault:
            attempts = fault["attempts"]
            if (not isinstance(attempts, list) or not attempts
                    or not all(_is_int(a) and a >= 1 for a in attempts)):
                errors.append(f"{where}: attempts must be a non-empty list "
                              f"of attempt numbers >= 1, got {attempts!r}")
        if "p" in fault and (not _is_num(fault["p"])
                             or not 0.0 <= fault["p"] <= 1.0):
            errors.append(f"{where}: p must be a probability in [0, 1], "
                          f"got {fault['p']!r}")
    return errors


def chaos_from_dict(data: Dict) -> ChaosPlan:
    """Build a :class:`ChaosPlan`; raises :class:`ChaosPlanError` listing
    every validation problem."""
    errors = validate_chaos_dict(data)
    if errors:
        raise ChaosPlanError("\n".join(errors))
    faults = tuple(
        ChaosFault(
            kind=fault["kind"],
            unit=fault.get("unit"),
            key=fault.get("key"),
            seconds=float(fault.get("seconds", 0.0)),
            attempts=tuple(fault.get("attempts", [1])),
            p=float(fault.get("p", 1.0)),
        )
        for fault in data.get("faults", []))
    return ChaosPlan(faults=faults, seed=int(data.get("seed", 0)),
                     description=str(data.get("description", "")))


def load_chaos_plan(path: str) -> ChaosPlan:
    """Load and validate a chaos-plan JSON file."""
    try:
        with open(path, "r", encoding="utf-8") as fh:
            data = json.load(fh)
    except json.JSONDecodeError as exc:
        raise ChaosPlanError(f"{path} is not valid JSON: {exc}") from exc
    return chaos_from_dict(data)


def corrupt_cache_entry(path: str) -> bool:
    """Tamper with a cache entry's payload on disk (checksum kept).

    The entry stays well-formed JSON with its original ``sha256``
    field, so only payload-checksum verification — not a JSON parse —
    can catch it, exactly the silent bit-rot the integrity layer is
    for.  Returns False when there is no entry to corrupt.
    """
    try:
        with open(path, "r", encoding="utf-8") as fh:
            entry = json.load(fh)
    except (OSError, ValueError):
        return False
    entry["value"] = {"__chaos_corrupted__": True,
                      "was": entry.get("value")}
    with open(path, "w", encoding="utf-8") as fh:
        json.dump(entry, fh, sort_keys=True)
        fh.write("\n")
    return True

"""Canonical serialization and hashing of configuration objects.

The execution fabric (:mod:`repro.exec`) keys its on-disk result cache
by the *content* of a work unit — its parameters, the machine
configuration, the ambient fault plan — so two processes, or two runs a
week apart, must serialize the same configuration to the same bytes.
The observability manifests (:mod:`repro.obs.metrics`) embed the same
canonical form so manifest ``config`` blocks diff cleanly.

Canonical form rules:

* dataclasses become plain dicts of their fields;
* tuples, sets, and frozensets become lists (sets sorted by their
  canonical JSON, so iteration order cannot leak in);
* enums become their ``value``;
* numpy scalars/arrays become Python scalars/lists (via ``tolist``);
* dict keys become strings, and :func:`canonical_json` sorts them;
* anything else that is not already a JSON scalar is rejected loudly —
  a silently lossy ``str(obj)`` would make cache keys lie.
"""

from __future__ import annotations

import dataclasses
import enum
import hashlib
import json
from typing import Any, Dict

__all__ = ["canonical", "canonical_json", "config_dict", "stable_hash"]


#: exact JSON scalar types, already canonical.  Their subclasses (an
#: ``IntEnum`` member, a ``str``-mixin enum member, ``numpy.float64``)
#: take the checks below.
_SCALARS = frozenset({str, int, float, bool, type(None)})


def canonical(obj: Any) -> Any:
    """Recursively coerce ``obj`` into canonical JSON-able form."""
    if type(obj) in _SCALARS:
        return obj
    if isinstance(obj, enum.Enum):
        return canonical(obj.value)
    if dataclasses.is_dataclass(obj) and not isinstance(obj, type):
        return {f.name: canonical(getattr(obj, f.name))
                for f in dataclasses.fields(obj)}
    if isinstance(obj, dict):
        return {str(k): canonical(v) for k, v in obj.items()}
    if isinstance(obj, (set, frozenset)):
        items = [canonical(v) for v in obj]
        return sorted(items, key=lambda v: json.dumps(v, sort_keys=True))
    if isinstance(obj, (list, tuple)):
        return [canonical(v) for v in obj]
    if isinstance(obj, int):
        return int(obj)  # normalise int subclasses
    if isinstance(obj, float):
        return float(obj)
    if isinstance(obj, str):
        return obj
    if hasattr(obj, "tolist"):  # numpy scalar or array
        return canonical(obj.tolist())
    raise TypeError(
        f"cannot canonicalise {type(obj).__name__}: {obj!r} (add an "
        "explicit conversion rather than relying on str())")


def canonical_json(obj: Any) -> str:
    """``obj`` as byte-stable JSON: canonical form, sorted keys, no
    whitespace, ASCII only."""
    return json.dumps(canonical(obj), sort_keys=True,
                      separators=(",", ":"), ensure_ascii=True)


def config_dict(config: Any) -> Dict[str, Any]:
    """A dataclass config as a canonical plain dict (for manifests)."""
    out = canonical(config)
    if not isinstance(out, dict):
        raise TypeError(f"expected a dataclass/dict config, got "
                        f"{type(config).__name__}")
    return out


def stable_hash(obj: Any, length: int = 64) -> str:
    """Hex SHA-256 of the canonical JSON of ``obj`` (``length`` chars)."""
    digest = hashlib.sha256(canonical_json(obj).encode("ascii")).hexdigest()
    return digest[:length]

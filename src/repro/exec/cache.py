"""Content-addressed on-disk cache of work-unit results.

Each completed work unit is stored under the SHA-256 of its **key
material**: the canonical JSON (see :mod:`repro.core.canon`) of

* the unit itself (experiment id, point key, parameters),

plus its run's :func:`run_material`, which the sweep journal's header
binds to as well:

* the full machine configuration,
* the ambient fault plan (or null),
* the RNG seed (or null),
* the package code fingerprint, and
* the cache schema version.

Anything that could change a unit's value changes its address, so the
cache never needs explicit invalidation — stale entries are simply
never addressed again (``prune`` exists to reclaim the disk they use).
Entries are written as each unit completes, so a killed or cancelled
sweep keeps every unit it finished and its rerun computes only the
rest.

Layout: ``<root>/objects/<aa>/<digest>.json``, each file a small JSON
document holding the value (its dict keys in the order the unit built
them, so a warm run assembles the same ``data`` as a cold one), a
``sha256`` **payload checksum** of the value's canonical JSON, and
enough metadata to audit it.  Writes are atomic (temp file +
``os.replace``).  Reads verify the checksum: an entry whose payload
does not hash to its recorded checksum — silent bit-rot, a torn write
from a killed process, a hostile edit — is **quarantined** (moved to
``<root>/quarantine/``) and reads as a miss, so the unit is simply
re-executed; ``corrupt``/``quarantined`` counters surface the event in
``--cache-stats`` and manifests.  A structurally unreadable entry
(truncated JSON, foreign schema) is removed and reads as a miss, as
before.

The default root is ``$REPRO_CACHE_DIR``, else ``$XDG_CACHE_HOME/
repro``, else ``~/.cache/repro``.  :meth:`ResultCache.check_root`
validates a user-supplied root up front with actionable errors
(unwritable directory, path that is a file, directory full of
non-cache files) instead of letting a raw ``OSError`` escape mid-run.

Schema history: v2 added the per-entry payload checksum; v1 entries
(no checksum) read as misses and are re-executed once, then re-stored
verified.
"""

from __future__ import annotations

import json
import os
import tempfile
from typing import Dict, Optional

from ..core.canon import canonical, stable_hash
from .fingerprint import code_fingerprint
from .units import WorkUnit

__all__ = ["ResultCache", "CacheRootError", "default_cache_root",
           "CACHE_SCHEMA", "run_material"]

CACHE_SCHEMA = 2

#: entries the cache itself creates inside its root
_CACHE_ENTRIES = {"objects", "quarantine"}


class CacheRootError(ValueError):
    """The cache root is unusable; str() is one actionable line."""


def run_material(config, fault_plan=None, seed: Optional[int] = None,
                 fingerprint: str = "") -> Dict:
    """Everything besides the unit itself that a unit's value depends on.

    The one definition of "the same run": a cache entry's address and
    a sweep journal's header both hash it, so neither can hand a value
    to a run with another machine, fault plan, seed or code.
    """
    return {
        "schema": CACHE_SCHEMA,
        "machine": canonical(config),
        "faults": (canonical(fault_plan.to_dict())
                   if fault_plan is not None else None),
        "seed": seed,
        "code": fingerprint,
    }


def default_cache_root() -> str:
    """``$REPRO_CACHE_DIR`` > ``$XDG_CACHE_HOME/repro`` > ``~/.cache/repro``."""
    explicit = os.environ.get("REPRO_CACHE_DIR")
    if explicit:
        return explicit
    xdg = os.environ.get("XDG_CACHE_HOME")
    base = xdg if xdg else os.path.join(os.path.expanduser("~"), ".cache")
    return os.path.join(base, "repro")


class ResultCache:
    """Content-addressed store of unit values, with hit/miss accounting."""

    def __init__(self, root: Optional[str] = None,
                 fingerprint: Optional[str] = None):
        self.root = os.path.abspath(root or default_cache_root())
        self.fingerprint = fingerprint or code_fingerprint()
        self.hits = 0
        self.misses = 0
        self.stores = 0
        self.corrupt = 0       #: entries that failed checksum verification
        self.quarantined = 0   #: corrupt entries preserved for autopsy

    # -- root validation ------------------------------------------------

    def check_root(self) -> None:
        """Fail fast — and actionably — on an unusable cache root.

        Raises :class:`CacheRootError` when the root is a file, is a
        directory that plainly is not a repro cache (so a typo'd
        ``--cache-dir ~/Documents`` cannot slowly fill with object
        files), or cannot be created/written.  A missing root is fine:
        it is created on the spot, which also proves writability.
        """
        root = self.root
        if os.path.exists(root) and not os.path.isdir(root):
            raise CacheRootError(
                f"cache dir {root} is a file, not a directory; remove it "
                "or point --cache-dir/$REPRO_CACHE_DIR at a directory")
        if os.path.isdir(root):
            foreign = sorted(set(os.listdir(root)) - _CACHE_ENTRIES)
            if foreign and not os.path.isdir(os.path.join(root, "objects")):
                shown = ", ".join(repr(name) for name in foreign[:3])
                if len(foreign) > 3:
                    shown += f", ... ({len(foreign)} entries)"
                raise CacheRootError(
                    f"cache dir {root} contains non-cache files ({shown}); "
                    "refusing to use it — pass an empty or dedicated "
                    "directory to --cache-dir/$REPRO_CACHE_DIR")
        try:
            os.makedirs(os.path.join(self.root, "objects"), exist_ok=True)
            probe = tempfile.NamedTemporaryFile(
                dir=os.path.join(self.root, "objects"), prefix=".probe-")
            probe.close()
        except OSError as exc:
            reason = exc.strerror or str(exc)
            raise CacheRootError(
                f"cache dir {root} is not writable ({reason}); fix its "
                "permissions, or point --cache-dir/$REPRO_CACHE_DIR at a "
                "writable directory, or pass --no-cache") from exc

    # -- addressing -----------------------------------------------------

    def key_material(self, unit: WorkUnit, config, fault_plan=None,
                     seed: Optional[int] = None) -> Dict:
        """Everything a unit's value depends on, in canonical form."""
        return {"unit": unit.material(),
                **run_material(config, fault_plan, seed, self.fingerprint)}

    def digest(self, unit: WorkUnit, config, fault_plan=None,
               seed: Optional[int] = None) -> str:
        return stable_hash(self.key_material(unit, config, fault_plan, seed))

    def _path(self, digest: str) -> str:
        return os.path.join(self.root, "objects", digest[:2],
                            f"{digest}.json")

    def _quarantine_path(self, digest: str) -> str:
        return os.path.join(self.root, "quarantine", f"{digest}.json")

    # -- storage --------------------------------------------------------

    def get(self, digest: str):
        """The cached value for ``digest``, or raise :class:`KeyError`.

        A checksum-mismatched entry is quarantined (not deleted — the
        corrupt bytes stay available for autopsy under
        ``<root>/quarantine/``) and reads as a miss.
        """
        path = self._path(digest)
        try:
            with open(path, "r", encoding="utf-8") as fh:
                entry = json.load(fh)
            if not isinstance(entry, dict):
                raise ValueError("entry is not a JSON object")
            if entry.get("schema") != CACHE_SCHEMA:
                raise ValueError("schema mismatch")
            value = entry["value"]
            recorded = entry["sha256"]
        except FileNotFoundError:
            self.misses += 1
            raise KeyError(digest) from None
        except (OSError, ValueError, KeyError):
            # structurally unreadable (truncated/not an object/foreign/
            # no checksum): drop it, treat as a miss
            try:
                os.remove(path)
            except OSError:
                pass
            self.misses += 1
            raise KeyError(digest) from None
        if stable_hash(value) != recorded:
            # well-formed JSON whose payload no longer matches its
            # checksum: silent corruption.  Preserve the evidence.
            self.corrupt += 1
            self._quarantine(digest, path)
            self.misses += 1
            raise KeyError(digest) from None
        self.hits += 1
        return value

    def _quarantine(self, digest: str, path: str) -> None:
        qpath = self._quarantine_path(digest)
        try:
            os.makedirs(os.path.dirname(qpath), exist_ok=True)
            os.replace(path, qpath)
            self.quarantined += 1
        except OSError:
            # quarantine dir unwritable: deletion still protects reads
            try:
                os.remove(path)
            except OSError:
                pass

    def put(self, digest: str, value, unit: Optional[WorkUnit] = None
            ) -> None:
        """Store ``value`` (plain JSON-able data) under ``digest``."""
        path = self._path(digest)
        os.makedirs(os.path.dirname(path), exist_ok=True)
        entry = {"schema": CACHE_SCHEMA, "value": value,
                 "sha256": stable_hash(value)}
        if unit is not None:
            entry["unit"] = {"experiment_id": unit.experiment_id,
                             "key": unit.key}
        fd, tmp = tempfile.mkstemp(dir=os.path.dirname(path),
                                   suffix=".tmp")
        try:
            with os.fdopen(fd, "w", encoding="utf-8") as fh:
                json.dump(entry, fh)
                fh.write("\n")
            os.replace(tmp, path)
        except BaseException:
            try:
                os.remove(tmp)
            except OSError:
                pass
            raise
        self.stores += 1

    # -- maintenance ----------------------------------------------------

    def entries(self) -> int:
        """Number of objects currently stored."""
        objects = os.path.join(self.root, "objects")
        count = 0
        for dirpath, _dirnames, filenames in os.walk(objects):
            count += sum(1 for f in filenames if f.endswith(".json"))
        return count

    def quarantine_entries(self) -> int:
        """Number of corrupt entries preserved under ``quarantine/``."""
        quarantine = os.path.join(self.root, "quarantine")
        try:
            return sum(1 for name in os.listdir(quarantine)
                       if name.endswith(".json"))
        except OSError:
            return 0

    def prune(self) -> int:
        """Delete every stored object; returns how many were removed."""
        objects = os.path.join(self.root, "objects")
        removed = 0
        for dirpath, _dirnames, filenames in os.walk(objects):
            for name in filenames:
                if name.endswith(".json"):
                    try:
                        os.remove(os.path.join(dirpath, name))
                        removed += 1
                    except OSError:
                        pass
        return removed

    def stats(self) -> Dict[str, object]:
        lookups = self.hits + self.misses
        return {
            "root": self.root,
            "hits": self.hits,
            "misses": self.misses,
            "stores": self.stores,
            "corrupt": self.corrupt,
            "quarantined": self.quarantined,
            "hit_rate": (self.hits / lookups) if lookups else 0.0,
        }

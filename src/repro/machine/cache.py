"""Per-CPU direct-mapped data cache (1 MB, 32-byte lines on the PA-7100).

Only tags are modelled — data values live in the machine's word store.
The cache answers hit/miss and performs direct-mapped replacement.  The
hit and miss counts that the paper's hardware instrumentation exposed
(§6 praises exactly these counters) are the machine tracer's ``load.*``
counters and memscope's miss classes.
"""

from __future__ import annotations

from typing import Dict, Optional

from ..core.config import MachineConfig

__all__ = ["DirectMappedCache"]


class DirectMappedCache:
    """Tag store of a direct-mapped cache with 32-byte lines."""

    #: optional :class:`~repro.obs.memscope.MemScope` + owning CPU id,
    #: wired by the Machine when a profiler is ambient; class attributes
    #: keep the unprofiled path at one ``is None`` check per access.
    memscope = None
    cpu = -1

    def __init__(self, config: MachineConfig):
        self.config = config
        self.n_sets = config.dcache_lines
        self._tags: Dict[int, int] = {}   # set index -> line address

    def line_of(self, addr: int) -> int:
        """Line-aligned address containing ``addr``."""
        return addr - (addr % self.config.line_bytes)

    def set_of(self, line: int) -> int:
        """Direct-mapped set index of a line address."""
        return (line // self.config.line_bytes) % self.n_sets

    def contains(self, line: int) -> bool:
        """Tag check that reports nothing to memscope."""
        return self._tags.get(self.set_of(line)) == line

    def access(self, line: int) -> bool:
        """Tag check that reports a hit to memscope; True on hit."""
        if self._tags.get((line // self.config.line_bytes)
                          % self.n_sets) == line:
            if self.memscope is not None:
                self.memscope.cache_hit(self.cpu, line)
            return True
        # misses are classified (local/GCB/remote) by the fetch path in
        # :mod:`repro.machine.system`
        return False

    def insert(self, line: int) -> Optional[int]:
        """Install ``line``; returns the evicted line if the set was full."""
        if line % self.config.line_bytes:
            raise ValueError(f"{line:#x} is not line-aligned")
        idx = self.set_of(line)
        victim = self._tags.get(idx)
        if victim == line:
            return None
        self._tags[idx] = line
        return victim

    def invalidate(self, line: int) -> bool:
        """Drop ``line`` if present; True if a copy was removed."""
        idx = self.set_of(line)
        if self._tags.get(idx) == line:
            del self._tags[idx]
            if self.memscope is not None:
                self.memscope.cache_invalidated(self.cpu, line)
            return True
        return False

    def flush(self) -> None:
        """Empty the cache (used between measurement repetitions)."""
        self._tags.clear()

    @property
    def occupancy(self) -> int:
        """Number of valid lines currently cached."""
        return len(self._tags)

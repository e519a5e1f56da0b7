"""Translation lookaside buffer model (paper §2.2).

The PA-RISC 7100 translates virtual addresses through an on-chip TLB;
misses trap to a software miss handler — a few hundred cycles on 1995
PA-RISC systems.  Each simulated CPU carries one fully-associative LRU
TLB; the memory system consults it on every access and charges the
handler cost on a miss.

Page-granular costs are what bends Figure 4 past the 8 KB fast-buffer
boundary, so the TLB is part of the mechanism, not garnish.
"""

from __future__ import annotations

from collections import OrderedDict

from ..core.config import MachineConfig

__all__ = ["TLB"]


class TLB:
    """Fully-associative, LRU, per-CPU translation cache."""

    def __init__(self, config: MachineConfig):
        self.config = config
        self.entries = config.tlb_entries
        self._pages: "OrderedDict[int, None]" = OrderedDict()

    def page_of(self, addr: int) -> int:
        return addr // self.config.page_bytes

    def access(self, addr: int) -> bool:
        """Translate one address; True on hit (miss inserts the page)."""
        page = self.page_of(addr)
        if page in self._pages:
            self._pages.move_to_end(page)
            return True
        self._pages[page] = None
        if len(self._pages) > self.entries:
            self._pages.popitem(last=False)
        return False

    def contains(self, addr: int) -> bool:
        """Tag check without replacement."""
        return self.page_of(addr) in self._pages

    def flush(self) -> None:
        self._pages.clear()

    @property
    def occupancy(self) -> int:
        return len(self._pages)

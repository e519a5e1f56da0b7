"""Physical address layout and the five SPP-1000 memory classes.

The paper (§3.2) exposes five classes of virtual memory to programs:
thread-private, node-private, near-shared, far-shared and block-shared.
Placement — which hypernode / functional unit / bank physically backs a
given cache line — determines every access latency in the machine, so this
module is the single place that computes *home locations*.

Regions are allocated from a flat physical address space by a bump
allocator; each region records its memory class and placement parameters
and can answer ``home_of(line_addr)``.
"""

from __future__ import annotations

import enum
from dataclasses import dataclass
from typing import Optional

from ..core.config import MachineConfig

__all__ = ["MemClass", "HomeLocation", "Region", "AddressSpace"]


class MemClass(enum.Enum):
    """The five memory classes of §3.2."""

    THREAD_PRIVATE = "thread_private"
    NODE_PRIVATE = "node_private"
    NEAR_SHARED = "near_shared"
    FAR_SHARED = "far_shared"
    BLOCK_SHARED = "block_shared"


@dataclass(frozen=True)
class HomeLocation:
    """Physical home of one cache line."""

    hypernode: int
    fu: int
    bank: int

    @property
    def ring(self) -> int:
        """The SCI ring that serves this line (ring id == FU id)."""
        return self.fu


class Region:
    """A contiguous allocation with one memory class and placement."""

    def __init__(self, space: "AddressSpace", base: int, size: int,
                 mclass: MemClass, home_hypernode: Optional[int],
                 home_fu: Optional[int], block_bytes: Optional[int],
                 label: str = ""):
        self.space = space
        self.base = base
        self.size = size
        self.mclass = mclass
        self.home_hypernode = home_hypernode
        self.home_fu = home_fu
        self.block_bytes = block_bytes
        self.label = label

    @property
    def end(self) -> int:
        return self.base + self.size

    def __contains__(self, addr: int) -> bool:
        return self.base <= addr < self.end

    def addr(self, offset: int) -> int:
        """Address of byte ``offset`` within this region (bounds-checked)."""
        if not 0 <= offset < self.size:
            raise IndexError(
                f"offset {offset} outside region {self.label!r} "
                f"of size {self.size}")
        return self.base + offset

    def home_of(self, addr: int, accessor_hn: Optional[int] = None) -> HomeLocation:
        """Home of the line containing ``addr``.

        ``accessor_hn`` is required for NODE_PRIVATE regions: each
        hypernode holds its own copy, so the effective home is on the
        accessing hypernode.
        """
        cfg = self.space.config
        if addr not in self:
            raise ValueError(f"address {addr:#x} not in region {self.label!r}")
        offset = addr - self.base

        if self.mclass is MemClass.THREAD_PRIVATE:
            # Lives where the owning thread runs; both placement fields are
            # fixed at allocation time.  Pages alternate between the FU's
            # two banks.
            page = offset // cfg.page_bytes
            return HomeLocation(self.home_hypernode, self.home_fu,
                                page % cfg.banks_per_fu)

        if self.mclass is MemClass.NODE_PRIVATE:
            if accessor_hn is None:
                raise ValueError(
                    "node-private access needs the accessor's hypernode")
            page = offset // cfg.page_bytes
            fu = page % cfg.fus_per_hypernode
            bank = (page // cfg.fus_per_hypernode) % cfg.banks_per_fu
            return HomeLocation(accessor_hn, fu, bank)

        if self.mclass is MemClass.NEAR_SHARED:
            # One unique copy, hosted entirely by one hypernode with pages
            # interleaved across its functional units (paper §2.6).
            page = offset // cfg.page_bytes
            fu = page % cfg.fus_per_hypernode
            bank = (page // cfg.fus_per_hypernode) % cfg.banks_per_fu
            return HomeLocation(self.home_hypernode, fu, bank)

        # FAR_SHARED / BLOCK_SHARED: units distributed round-robin across
        # hypernodes *and* across functional units within each hypernode.
        unit_bytes = (cfg.page_bytes if self.mclass is MemClass.FAR_SHARED
                      else self.block_bytes)
        unit = offset // unit_bytes
        hn = unit % cfg.n_hypernodes
        fu = (unit // cfg.n_hypernodes) % cfg.fus_per_hypernode
        bank = (unit // (cfg.n_hypernodes * cfg.fus_per_hypernode)) \
            % cfg.banks_per_fu
        return HomeLocation(hn, fu, bank)

    def __repr__(self) -> str:  # pragma: no cover - debug aid
        return (f"<Region {self.label!r} {self.mclass.value} "
                f"base={self.base:#x} size={self.size}>")


class AddressSpace:
    """Bump allocator handing out page-aligned :class:`Region` objects."""

    def __init__(self, config: MachineConfig):
        self.config = config
        self._next = config.page_bytes  # keep address 0 unmapped
        self._regions: list = []
        # (addr, accessor_hn) -> home; the allocator only appends
        # regions, so an address's home never changes once computed
        self._homes: dict = {}

    @property
    def allocated_bytes(self) -> int:
        """Total bytes handed out so far."""
        return sum(r.size for r in self._regions)

    @property
    def physical_bytes(self) -> int:
        """Installed physical memory (all banks of all functional units)."""
        cfg = self.config
        return cfg.n_fus * cfg.banks_per_fu * cfg.bank_bytes

    @property
    def utilization(self) -> float:
        """Fraction of physical memory allocated (>1 means the workload
        would not fit the real machine — reported, not enforced, since
        simulation state is symbolic)."""
        return self.allocated_bytes / self.physical_bytes

    def alloc(self, size: int, mclass: MemClass, *,
              home_hypernode: Optional[int] = None,
              home_fu: Optional[int] = None,
              block_bytes: Optional[int] = None,
              label: str = "") -> Region:
        """Allocate ``size`` bytes of the given memory class.

        Placement arguments required per class:

        * THREAD_PRIVATE: ``home_hypernode`` and ``home_fu``
        * NEAR_SHARED: ``home_hypernode``
        * BLOCK_SHARED: ``block_bytes`` (multiple of the line size)
        """
        cfg = self.config
        if size <= 0:
            raise ValueError("allocation size must be positive")
        if mclass is MemClass.THREAD_PRIVATE:
            if home_hypernode is None or home_fu is None:
                raise ValueError(
                    "thread-private allocation needs home_hypernode+home_fu")
        elif mclass is MemClass.NEAR_SHARED:
            if home_hypernode is None:
                raise ValueError("near-shared allocation needs home_hypernode")
        elif mclass is MemClass.BLOCK_SHARED:
            if not block_bytes or block_bytes % cfg.line_bytes:
                raise ValueError(
                    "block-shared allocation needs block_bytes, a multiple "
                    "of the cache-line size")
        if home_hypernode is not None and \
                not 0 <= home_hypernode < cfg.n_hypernodes:
            raise ValueError(f"home hypernode {home_hypernode} out of range")
        if home_fu is not None and not 0 <= home_fu < cfg.fus_per_hypernode:
            raise ValueError(f"home FU {home_fu} out of range")

        # Page-align every region so interleaving starts on a unit boundary.
        pages = -(-size // cfg.page_bytes)
        base = self._next
        self._next += pages * cfg.page_bytes
        region = Region(self, base, pages * cfg.page_bytes, mclass,
                        home_hypernode, home_fu, block_bytes, label)
        self._regions.append(region)
        return region

    def region_of(self, addr: int) -> Region:
        """The region containing ``addr`` (raises KeyError if unmapped)."""
        # Regions are disjoint and sorted by construction; binary search.
        lo, hi = 0, len(self._regions)
        while lo < hi:
            mid = (lo + hi) // 2
            region = self._regions[mid]
            if addr < region.base:
                hi = mid
            elif addr >= region.end:
                lo = mid + 1
            else:
                return region
        raise KeyError(f"address {addr:#x} is not mapped")

    def home_of(self, addr: int, accessor_hn: Optional[int] = None) -> HomeLocation:
        """Home of the line containing ``addr`` (memoised; an unmapped
        address raises :class:`KeyError` every time)."""
        key = (addr, accessor_hn)
        home = self._homes.get(key)
        if home is None:
            home = self._homes[key] = \
                self.region_of(addr).home_of(addr, accessor_hn)
        return home

    @property
    def regions(self) -> tuple:
        return tuple(self._regions)

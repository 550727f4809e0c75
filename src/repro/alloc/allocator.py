"""Persistent-heap allocator for the simulated PM region.

A first-fit free-list allocator with a bump-pointer tail, handing out
word-aligned ranges from the persistent heap
(:data:`repro.mem.layout.PM_HEAP_BASE` upward).

Allocator *bookkeeping* is volatile, which matches the paper's
programming model: an allocation made inside a crash-interrupted
transaction is simply leaked, and recovery reclaims leaks with a garbage
collector / persistent inspector (Pattern 1, Section IV-A).
:meth:`PersistentAllocator.rebuild_from_reachable` implements that GC
step — it reconstructs allocator state from the set of object ranges a
workload's recovery code found reachable from its durable roots.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Dict, Iterable, List, Tuple

from repro.common import units
from repro.common.errors import AllocationError
from repro.mem import layout


def _align_up(value: int, align: int) -> int:
    return (value + align - 1) & ~(align - 1)


@dataclass(frozen=True)
class Allocation:
    """One live allocation: base address and size in bytes."""

    addr: int
    size: int

    @property
    def end(self) -> int:
        return self.addr + self.size


class PersistentAllocator:
    """First-fit free list + bump pointer over the persistent heap."""

    def __init__(
        self,
        base: int = layout.PM_HEAP_BASE,
        capacity: int = 256 * units.MIB,
        *,
        default_align: int = units.WORD_BYTES,
    ) -> None:
        if base % units.WORD_BYTES != 0:
            raise AllocationError("heap base must be word-aligned")
        self.base = base
        self.capacity = capacity
        self.default_align = default_align
        self._bump = base
        self._free: List[Tuple[int, int]] = []  # (addr, size), sorted by addr
        self._live: Dict[int, Allocation] = {}
        self.total_allocated = 0
        self.total_freed = 0

    # --- allocation ---------------------------------------------------------

    def alloc(self, size: int, *, align: "int | None" = None) -> int:
        """Allocate *size* bytes; returns the base address."""
        if size <= 0:
            raise AllocationError(f"invalid allocation size {size}")
        align = align or self.default_align
        if align % units.WORD_BYTES != 0:
            raise AllocationError("alignment must be a multiple of the word size")
        size = _align_up(size, units.WORD_BYTES)

        addr = self._take_from_free_list(size, align)
        if addr is None:
            addr = _align_up(self._bump, align)
            if addr + size > self.base + self.capacity:
                raise AllocationError(
                    f"persistent heap exhausted (capacity {self.capacity} bytes)"
                )
            self._bump = addr + size
        self._live[addr] = Allocation(addr, size)
        self.total_allocated += 1
        return addr

    def _take_from_free_list(self, size: int, align: int) -> "int | None":
        for i, (addr, block_size) in enumerate(self._free):
            aligned = _align_up(addr, align)
            waste = aligned - addr
            if block_size - waste >= size:
                del self._free[i]
                if waste:
                    self._free_insert(addr, waste)
                tail = block_size - waste - size
                if tail:
                    self._free_insert(aligned + size, tail)
                return aligned
        return None

    def free(self, addr: int) -> None:
        """Release a live allocation."""
        allocation = self._live.pop(addr, None)
        if allocation is None:
            raise AllocationError(f"free of unallocated address {addr:#x}")
        self._free_insert(allocation.addr, allocation.size)
        self.total_freed += 1

    def _free_insert(self, addr: int, size: int) -> None:
        """Insert a block, merging with adjacent free neighbours."""
        lo, hi = 0, len(self._free)
        while lo < hi:
            mid = (lo + hi) // 2
            if self._free[mid][0] < addr:
                lo = mid + 1
            else:
                hi = mid
        self._free.insert(lo, (addr, size))
        self._coalesce_around(lo)

    def _coalesce_around(self, index: int) -> None:
        # Merge with successor first, then predecessor.
        if index + 1 < len(self._free):
            addr, size = self._free[index]
            naddr, nsize = self._free[index + 1]
            if addr + size == naddr:
                self._free[index] = (addr, size + nsize)
                del self._free[index + 1]
        if index > 0:
            paddr, psize = self._free[index - 1]
            addr, size = self._free[index]
            if paddr + psize == addr:
                self._free[index - 1] = (paddr, psize + size)
                del self._free[index]

    # --- queries ------------------------------------------------------------

    def is_live(self, addr: int) -> bool:
        return addr in self._live

    def live_count(self) -> int:
        """Number of live allocations: an upper bound on the nodes of any
        acyclic pointer chain through this heap."""
        return len(self._live)

    def live_allocations(self) -> List[Allocation]:
        return sorted(self._live.values(), key=lambda a: a.addr)

    def live_bytes(self) -> int:
        return sum(a.size for a in self._live.values())

    def free_bytes(self) -> int:
        return sum(size for _, size in self._free)

    def load(self, other: "PersistentAllocator") -> None:
        """Become a copy of *other*'s heap state in place, so every
        runtime holding this allocator sees it (crash images carry the
        allocator a recovery hook may allocate from)."""
        self.base = other.base
        self.capacity = other.capacity
        self.default_align = other.default_align
        self._bump = other._bump
        self._free = list(other._free)
        self._live = dict(other._live)
        self.total_allocated = other.total_allocated
        self.total_freed = other.total_freed

    # --- post-crash GC (Pattern 1 recovery) ------------------------------------

    def rebuild_from_reachable(self, reachable: "Iterable[Tuple[int, int]]") -> int:
        """Reset allocator state to exactly the reachable object set.

        *reachable* yields ``(addr, size)`` ranges found by the workload's
        recovery scan.  Everything else below the bump pointer becomes
        free space.  Returns the number of leaked allocations reclaimed.
        """
        old_live = set(self._live)
        self._live = {addr: Allocation(addr, _align_up(size, units.WORD_BYTES))
                      for addr, size in reachable}
        leaked = len(old_live - set(self._live))
        self._rebuild_free_list()
        return leaked

    def _rebuild_free_list(self) -> None:
        self._free = []
        cursor = self.base
        for allocation in sorted(self._live.values(), key=lambda a: a.addr):
            if allocation.addr > cursor:
                self._free_insert(cursor, allocation.addr - cursor)
            cursor = max(cursor, allocation.end)
        self._bump = cursor

"""Set-associative cache with true LRU replacement.

The cache stores :class:`~repro.mem.cacheline.CacheLine` objects keyed by
line address.  It is deliberately policy-free: eviction *victim selection*
happens here, but what to do with the victim (log-record flushing, persist
ordering, metadata propagation) is decided by the caller through the value
returned from :meth:`SetAssocCache.insert`.

Each set is an ``OrderedDict`` from line address to line; the MRU entry
sits at the end.  Lookups re-order; fills evict the LRU entry when the set
is full.  A line's set is its line number modulo the set count, for every
geometry; each method picks it inline (a helper would be one more Python
frame on every simulated access).

A set's ``OrderedDict`` is created by its first fill: ``_sets`` is a list
indexed by set number that holds ``None`` for a set never filled, and
every method reads such a set as empty.  A Table-III machine has 3,136
sets, and a deployment's machines touch only the sets their data maps
to.  The list keeps scans in set-index order whatever the fill order.
"""

from __future__ import annotations

from collections import OrderedDict
from typing import Callable, Iterator, List, Optional

from repro.common import units
from repro.common.config import CacheConfig
from repro.common.errors import SimulationError
from repro.mem.cacheline import CacheLine

_LINE_SHIFT = units.LINE_BYTES.bit_length() - 1  # 64 -> 6


class SetAssocCache:
    """A single cache level."""

    __slots__ = ("name", "config", "latency", "ways", "num_sets", "_sets")

    def __init__(self, name: str, config: CacheConfig) -> None:
        self.name = name
        self.config = config
        self.latency = config.latency_cycles
        self.ways = config.ways
        self.num_sets = config.num_sets
        self._sets: List[Optional["OrderedDict[int, CacheLine]"]] = [
            None
        ] * self.num_sets

    # --- lookup ---------------------------------------------------------

    def lookup(self, line_addr: int, *, touch: bool = True) -> Optional[CacheLine]:
        """Return the resident line for *line_addr*, or None on a miss.

        ``touch=True`` promotes the line to MRU (the normal access path);
        metadata-only scans pass ``touch=False`` to avoid perturbing LRU.
        """
        cache_set = self._sets[(line_addr >> _LINE_SHIFT) % self.num_sets]
        if cache_set is None:
            return None
        line = cache_set.get(line_addr)
        if line is not None and touch:
            cache_set.move_to_end(line_addr)
        return line

    def contains(self, line_addr: int) -> bool:
        cache_set = self._sets[(line_addr >> _LINE_SHIFT) % self.num_sets]
        return cache_set is not None and line_addr in cache_set

    # --- fill / evict -----------------------------------------------------

    def insert(self, line: CacheLine) -> Optional[CacheLine]:
        """Install *line*; return the evicted LRU victim, if any.

        The victim is removed from the cache before being returned, so the
        caller can write it back / propagate metadata without re-entrancy
        hazards.
        """
        line_addr = line.addr
        index = (line_addr >> _LINE_SHIFT) % self.num_sets
        cache_set = self._sets[index]
        if cache_set is None:
            cache_set = self._sets[index] = OrderedDict()
        elif line_addr in cache_set:
            raise SimulationError(
                f"{self.name}: double insert of line {line_addr:#x}"
            )
        victim: Optional[CacheLine] = None
        if len(cache_set) >= self.ways:
            _, victim = cache_set.popitem(last=False)
        cache_set[line_addr] = line
        return victim

    def remove(self, line_addr: int) -> Optional[CacheLine]:
        """Remove and return the line, or None if absent."""
        cache_set = self._sets[(line_addr >> _LINE_SHIFT) % self.num_sets]
        if cache_set is None:
            return None
        return cache_set.pop(line_addr, None)

    # --- scans ---------------------------------------------------------

    def iter_matching(
        self, predicate: Callable[[CacheLine], bool]
    ) -> Iterator[CacheLine]:
        """Lazily yield resident lines satisfying *predicate* (no LRU
        effect, no intermediate list).  Callers may mutate a yielded
        line's fields but must not insert or remove lines while
        iterating."""
        for cache_set in self._sets:
            if cache_set is None:
                continue
            for line in cache_set.values():
                if predicate(line):
                    yield line

    def resident_count(self) -> int:
        return sum(len(s) for s in self._sets if s is not None)

    def clear(self) -> None:
        """Drop every line (used for crash simulation: caches are volatile)."""
        for cache_set in self._sets:
            if cache_set is not None:
                cache_set.clear()

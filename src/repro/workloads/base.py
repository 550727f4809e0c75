"""Workload framework: durable data structures driven through PTx.

Each workload (Table II) is a persistent data structure whose every field
access is a simulated load/store issued through a
:class:`~repro.runtime.PTx`.  One *operation* is one durable transaction
(the ycsb-load experiments run 1,000 inserts of an 8-byte key and a
configurable-size value).

The framework separates three concerns:

* **execution** — :meth:`Workload.insert` runs the real algorithm against
  simulated memory, with a :class:`~repro.runtime.hints.Hint` at every
  store site (honoured or not depending on the active annotation policy);
* **validation** — :meth:`Workload.check_integrity` traverses the
  structure through a :class:`MemReader` and verifies its invariants, and
  :meth:`Workload.expected` tracks a Python-dict model of what the
  structure should contain;
* **recovery** — each workload is its own
  :class:`~repro.recovery.RecoveryHook`: after structural undo replay it
  garbage-collects leaked allocations (Pattern 1) and rebuilds lazily
  persistent data from other durable state (Pattern 2).
"""

from __future__ import annotations

import abc
from typing import Callable, Dict, List, Optional, Tuple

from repro.common import units
from repro.common.errors import RecoveryError
from repro.recovery.engine import PmView
from repro.runtime.hints import Hint
from repro.runtime.ptx import PTx

#: A word-reader: address -> value.  Bound to either the architectural
#: state (caches + PM) or the durable state (PM only).
MemReader = Callable[[int], int]


def value_words_for_key(key: int, value_words: int) -> List[int]:
    """Deterministic value payload derived from the key.

    Every word is a mixed function of the key and its index, so torn or
    lost values are detected by content checks, not just by length.
    """
    out = []
    for i in range(value_words):
        x = (key * 0x9E3779B97F4A7C15 + i * 0xD1B54A32D192ED03) & 0xFFFFFFFFFFFFFFFF
        out.append(x)
    return out


class Workload(abc.ABC):
    """A durable key-value data structure under test."""

    #: Short name matching Table II (e.g. "hashtable", "rbtree").
    name: str = "base"

    #: Driver-level operation kinds the fuzz campaign may generate
    #: against this structure ("insert", "remove", "extract").
    fuzz_ops: Tuple[str, ...] = ("insert",)

    def __init__(self, rt: PTx, *, value_bytes: int = 256) -> None:
        if value_bytes % units.WORD_BYTES != 0:
            raise ValueError("value size must be a whole number of words")
        self.rt = rt
        self.value_bytes = value_bytes
        self.value_words = value_bytes // units.WORD_BYTES
        #: Oracle: what the structure must contain.
        self.expected: Dict[int, List[int]] = {}
        self.setup()

    # --- to implement per structure -------------------------------------

    @abc.abstractmethod
    def setup(self) -> None:
        """Create the durable roots (runs once, inside a transaction)."""

    @abc.abstractmethod
    def _insert(self, key: int, value: List[int]) -> None:
        """Insert inside an already-open transaction."""

    @abc.abstractmethod
    def _lookup(self, key: int, read: MemReader) -> Optional[int]:
        """Return the value-buffer address for *key* via *read*, or None."""

    @abc.abstractmethod
    def check_integrity(self, read: MemReader) -> None:
        """Verify structural invariants; raise RecoveryError on violation."""

    @abc.abstractmethod
    def reachable(self, read: MemReader) -> List[Tuple[int, int]]:
        """All reachable allocations ``(addr, size)`` from durable roots."""

    def contents(self, read: MemReader) -> Optional[Dict[int, int]]:
        """Every key's value-buffer address in one walk via *read*, for a
        structure whose :meth:`_lookup` is a scan; None (the default)
        means a lookup per key is already the cheap way to verify."""
        return None

    def iter_keys(self, read: MemReader) -> List[int]:
        """Every key stored in the structure, traversed via *read*.

        The fuzz campaign's *exactness* invariant compares this against
        the committed-key oracle: an uncommitted insert must never be
        durably present and a committed remove must never resurrect.
        Each workload overrides this with its natural full traversal.
        """
        raise NotImplementedError(f"{self.name} has no iter_keys adapter")

    def rebuild_lazy(self, view: PmView) -> None:
        """Pattern-2 recovery: rebuild lazily persistent data (default:
        nothing is lazy)."""

    def walk_limit(self) -> int:
        """Steps a pointer walk may take before it must be in a cycle.

        Every node of a legal chain is a distinct live allocation, so no
        legal chain outgrows the heap's live-allocation count.  The bound
        needs no oracle (a service keeps its own until ``finish``) and
        issues no simulated load."""
        return self.rt.allocator.live_count()

    # --- common operations --------------------------------------------------

    def before_transaction(self, key: int) -> None:
        """Hook run *before* the insert transaction opens.

        Structures whose Pattern-2 recovery re-executes a bulk copy (heap
        growth) must run that copy as its own transaction, so that the
        re-execution cannot clobber writes made after the copy; they
        override this hook to do so.
        """

    def insert(self, key: int, value: "List[int] | None" = None) -> bool:
        """One durable operation inserting (key, value).

        Returns False when the transaction was aborted (a conflicting
        peer in a multi-core run, or an explicit abort) — the oracle is
        only updated for committed operations.
        """
        if value is None:
            value = value_words_for_key(key, self.value_words)
        self.before_transaction(key)
        with self.rt.transaction():
            self._insert(key, value)
        if self.rt.last_aborted:
            return False
        self.expected[key] = value
        return True

    def _write_value_buffer(self, value: List[int]) -> int:
        """Allocate and fill a value buffer (log-free: fresh memory)."""
        buf = self.rt.alloc(max(len(value), 1) * units.WORD_BYTES)
        self.rt.write_words(buf, value, Hint.NEW_ALLOC)
        return buf

    def _replace_value(self, ptr_addr: int, old_buf: int, value: List[int]) -> None:
        """Out-of-place value update (the PMDK idiom): fill a fresh
        buffer (log-free), swing the pointer (the one logged word), and
        free the old buffer at commit.  Far cheaper under selective
        logging than overwriting the old buffer with logged stores."""
        new_buf = self._write_value_buffer(value)
        self.rt.store(ptr_addr, new_buf)
        if old_buf != 0:
            self.rt.free(old_buf)

    def lookup(self, key: int, *, durable: bool = False) -> Optional[List[int]]:
        """Read the stored value without simulated cost (validation path)."""
        read = self.reader(durable=durable)
        return self._read_value(self._lookup(key, read), read)

    def _read_value(self, buf: Optional[int], read: MemReader) -> Optional[List[int]]:
        if buf is None:
            return None
        return [read(buf + i * units.WORD_BYTES) for i in range(self.value_words)]

    def remove(self, key: int) -> bool:
        """One durable transaction removing *key*; True when it existed.

        Structures that support removal override :meth:`_remove`.  The
        paper's Pattern 1 applies to the freed region: updates to memory
        the transaction frees (tombstones, poisoning) need neither
        logging nor persistence (:data:`Hint.DEAD_REGION`).
        """
        with self.rt.transaction():
            found = self._remove(key)
        if self.rt.last_aborted:
            return False
        if found:
            self.expected.pop(key, None)
        return found

    def _remove(self, key: int) -> bool:
        """Remove inside an open transaction (override to support)."""
        raise NotImplementedError(f"{self.name} does not support removal")

    def get(self, key: int) -> Optional[List[int]]:
        """A *simulated* read operation: the traversal and the value
        fetch issue real loads (cache hits/misses, latency), like the
        read side of a YCSB mixed workload.  Reads are not transactional
        — they modify nothing, so durability needs no logging."""
        read: MemReader = self.rt.load
        buf = self._lookup(key, read)
        if buf is None:
            return None
        return self.rt.read_words(buf, self.value_words)

    def reader(self, *, durable: bool = False) -> MemReader:
        machine = self.rt.machine
        # The durable reader is the PM's own (what Machine.durable_read
        # returns): crash judges traverse whole structures through it.
        return machine.pm.read_word if durable else machine.raw_read

    # --- verification helpers -------------------------------------------------

    def verify_contents(self, *, durable: bool = False, keys: "List[int] | None" = None) -> None:
        """Check that every expected key maps to its expected value, from
        one :meth:`contents` walk when the structure defines one."""
        read = self.reader(durable=durable)
        contents = self.contents(read)
        for key in keys if keys is not None else self.expected:
            buf = self._lookup(key, read) if contents is None else contents.get(key)
            got = self._read_value(buf, read)
            if got != self.expected[key]:
                raise RecoveryError(
                    f"{self.name}: key {key} has wrong value "
                    f"(got {None if got is None else got[:2]}..., "
                    f"want {self.expected[key][:2]}...)"
                )

    def verify(self, *, durable: bool = False) -> None:
        """Full check: invariants plus contents."""
        self.check_integrity(self.reader(durable=durable))
        self.verify_contents(durable=durable)

    # --- multi-core access ---------------------------------------------------

    def clone_for(self, rt: PTx) -> "Workload":
        """A second handle onto the *same* durable structure, bound to a
        different core's runtime (multi-core access).  Shares the roots,
        the oracle, and (through the runtimes) the persistent heap; does
        not re-run setup."""
        clone = object.__new__(type(self))
        clone.__dict__.update(self.__dict__)
        clone.rt = rt
        return clone

    # --- recovery (RecoveryHook protocol) -----------------------------------------

    def recover(self, view: PmView) -> None:
        """Application recovery: rebuild lazy data, then GC leaks."""
        self.rebuild_lazy(view)
        ranges = self.reachable(view.read)
        self.rt.allocator.rebuild_from_reachable(ranges)

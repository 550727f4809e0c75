"""Durable array-based max-heap (Table II).

The heap is a header plus a contiguous entry array; each entry is two
words (key, value-buffer pointer).  Annotation sites:

* value buffers — :data:`Hint.NEW_ALLOC`;
* the append of the new entry at index ``size`` — also
  :data:`Hint.NEW_ALLOC`-class: the slot is beyond the logged ``size``
  field, so on rollback it is dead data and needs no pre-image;
* sift-up swaps — plain logged stores: they overwrite live entries that
  cannot be rebuilt from anything else;
* array growth — a fresh double-size array filled by *copying* the old
  entries without touching them: every copied word is
  :data:`Hint.MOVED_DATA` (lazy + log-free), and the old array stays
  linked from the header until a later transaction retires it, enabling
  the Pattern-2 re-copy on recovery (same discipline as the hashtable's
  resize).
"""

from __future__ import annotations

from typing import Dict, List, Optional, Tuple

from repro.alloc.objects import NULL, layout
from repro.common import units
from repro.common.errors import RecoveryError
from repro.recovery.engine import PmView
from repro.runtime.hints import Hint
from repro.workloads.base import MemReader, Workload

HEADER = layout("heap_header", ["array", "old_array", "capacity", "size"])

#: Words per heap entry: key, value_ptr.
ENTRY_WORDS = 2
ENTRY_BYTES = ENTRY_WORDS * units.WORD_BYTES

INITIAL_CAPACITY = 64


class MaxHeap(Workload):
    """Array max-heap with doubling growth."""

    name = "heap"
    fuzz_ops = ("insert", "extract")

    def setup(self) -> None:
        rt = self.rt
        self.header = rt.allocator.alloc(HEADER.size)
        with rt.transaction():
            array = rt.alloc(INITIAL_CAPACITY * ENTRY_BYTES)
            rt.write_field(HEADER, self.header, "array", array)
            rt.write_field(HEADER, self.header, "old_array", NULL)
            rt.write_field(HEADER, self.header, "capacity", INITIAL_CAPACITY)
            rt.write_field(HEADER, self.header, "size", 0)

    # --- entry addressing ---------------------------------------------------

    @staticmethod
    def _key_addr(array: int, index: int) -> int:
        return array + index * ENTRY_BYTES

    @staticmethod
    def _val_addr(array: int, index: int) -> int:
        return array + index * ENTRY_BYTES + units.WORD_BYTES

    # ------------------------------------------------------------------
    # insert
    # ------------------------------------------------------------------

    def before_transaction(self, key: int) -> None:
        """Grow in its own transaction when the array is full.

        Running the copy separately from the insert guarantees that the
        recovery re-copy reproduces exactly the committed post-growth
        state — nothing else modified the new array in that transaction.
        """
        rt = self.rt
        read = self.reader()
        size = read(HEADER.addr(self.header, "size"))
        capacity = read(HEADER.addr(self.header, "capacity"))
        if size < capacity:
            return
        with rt.transaction():
            self._retire_old_array()
            array = rt.read_field(HEADER, self.header, "array")
            self._grow(array, capacity, size)

    def _insert(self, key: int, value: List[int]) -> None:
        rt = self.rt
        self._retire_old_array()
        array = rt.read_field(HEADER, self.header, "array")
        size = rt.read_field(HEADER, self.header, "size")

        buf = self._write_value_buffer(value)
        # The slot at `size` is beyond the durable size field: dead on
        # rollback, so no pre-image is needed.
        rt.store(self._key_addr(array, size), key, Hint.NEW_ALLOC)
        rt.store(self._val_addr(array, size), buf, Hint.NEW_ALLOC)
        rt.write_field(HEADER, self.header, "size", size + 1)
        self._sift_up(array, size)

    def _sift_up(self, array: int, index: int) -> None:
        rt = self.rt
        while index > 0:
            parent = (index - 1) // 2
            child_key = rt.load(self._key_addr(array, index))
            parent_key = rt.load(self._key_addr(array, parent))
            if parent_key >= child_key:
                break
            child_val = rt.load(self._val_addr(array, index))
            parent_val = rt.load(self._val_addr(array, parent))
            rt.store(self._key_addr(array, parent), child_key)
            rt.store(self._val_addr(array, parent), child_val)
            rt.store(self._key_addr(array, index), parent_key)
            rt.store(self._val_addr(array, index), parent_val)
            index = parent

    def extract_max(self) -> "int | None":
        """Pop the maximum key in one durable transaction.

        The vacated tail slot lies beyond the (logged) new size, so its
        tombstone is lazy-but-logged (:data:`Hint.TOMBSTONE`: a rollback
        resurrects the slot); the value buffer is freed (Pattern 1).
        Returns the removed key, or None when empty.
        """
        rt = self.rt
        removed: "int | None" = None
        with rt.transaction():
            self._retire_old_array()
            array = rt.read_field(HEADER, self.header, "array")
            size = rt.read_field(HEADER, self.header, "size")
            if size == 0:
                return None
            removed = rt.load(self._key_addr(array, 0))
            buf = rt.load(self._val_addr(array, 0))
            last = size - 1
            if last > 0:
                rt.store(self._key_addr(array, 0), rt.load(self._key_addr(array, last)))
                rt.store(self._val_addr(array, 0), rt.load(self._val_addr(array, last)))
            rt.write_field(HEADER, self.header, "size", last)
            # The old tail slot is now beyond the logged size: dead.
            rt.store(self._key_addr(array, last), 0xDEAD, Hint.TOMBSTONE)
            rt.store(self._val_addr(array, last), 0, Hint.TOMBSTONE)
            if last > 1:
                self._sift_down(array, last)
            if buf != 0:
                rt.free(buf)
        if removed is not None:
            self.expected.pop(removed, None)
        return removed

    def _sift_down(self, array: int, size: int) -> None:
        rt = self.rt
        index = 0
        while True:
            left = 2 * index + 1
            right = left + 1
            largest = index
            largest_key = rt.load(self._key_addr(array, index))
            if left < size:
                left_key = rt.load(self._key_addr(array, left))
                if left_key > largest_key:
                    largest, largest_key = left, left_key
            if right < size:
                right_key = rt.load(self._key_addr(array, right))
                if right_key > largest_key:
                    largest, largest_key = right, right_key
            if largest == index:
                return
            ikey = rt.load(self._key_addr(array, index))
            ival = rt.load(self._val_addr(array, index))
            lval = rt.load(self._val_addr(array, largest))
            rt.store(self._key_addr(array, index), largest_key)
            rt.store(self._val_addr(array, index), lval)
            rt.store(self._key_addr(array, largest), ikey)
            rt.store(self._val_addr(array, largest), ival)
            index = largest

    def _grow(self, old_array: int, capacity: int, size: int) -> int:
        """Copy-based growth: fresh array, old entries untouched."""
        rt = self.rt
        new_array = rt.alloc(capacity * 2 * ENTRY_BYTES)
        for i in range(size):
            rt.store(
                self._key_addr(new_array, i),
                rt.load(self._key_addr(old_array, i)),
                Hint.MOVED_DATA,
            )
            rt.store(
                self._val_addr(new_array, i),
                rt.load(self._val_addr(old_array, i)),
                Hint.MOVED_DATA,
            )
        rt.write_field(HEADER, self.header, "old_array", old_array)
        rt.write_field(HEADER, self.header, "array", new_array)
        rt.write_field(HEADER, self.header, "capacity", capacity * 2)
        return new_array

    def _retire_old_array(self) -> None:
        rt = self.rt
        old_array = rt.read_field(HEADER, self.header, "old_array")
        if old_array == NULL:
            return
        rt.write_field(HEADER, self.header, "old_array", NULL)
        rt.free(old_array)

    # ------------------------------------------------------------------
    # validation
    # ------------------------------------------------------------------

    def _lookup(self, key: int, read: MemReader) -> Optional[int]:
        array = read(HEADER.addr(self.header, "array"))
        size = read(HEADER.addr(self.header, "size"))
        for i in range(size):
            if read(self._key_addr(array, i)) == key:
                return read(self._val_addr(array, i))
        return None

    def contents(self, read: MemReader) -> Dict[int, int]:
        """One pass over the entry array; a repeated key maps to its
        first index, as :meth:`_lookup` finds it."""
        array = read(HEADER.addr(self.header, "array"))
        size = read(HEADER.addr(self.header, "size"))
        out: Dict[int, int] = {}
        for i in range(size):
            key = read(self._key_addr(array, i))
            if key not in out:
                out[key] = read(self._val_addr(array, i))
        return out

    def check_integrity(self, read: MemReader) -> None:
        array = read(HEADER.addr(self.header, "array"))
        capacity = read(HEADER.addr(self.header, "capacity"))
        size = read(HEADER.addr(self.header, "size"))
        if size > capacity:
            raise RecoveryError(f"heap: size {size} exceeds capacity {capacity}")
        for i in range(1, size):
            parent = (i - 1) // 2
            if read(self._key_addr(array, parent)) < read(self._key_addr(array, i)):
                raise RecoveryError(
                    f"heap: property violated at index {i} (parent {parent})"
                )

    def iter_keys(self, read: MemReader) -> List[int]:
        array = read(HEADER.addr(self.header, "array"))
        size = read(HEADER.addr(self.header, "size"))
        return [read(self._key_addr(array, i)) for i in range(size)]

    def reachable(self, read: MemReader) -> List[Tuple[int, int]]:
        out: List[Tuple[int, int]] = [(self.header, HEADER.size)]
        array = read(HEADER.addr(self.header, "array"))
        capacity = read(HEADER.addr(self.header, "capacity"))
        size = read(HEADER.addr(self.header, "size"))
        out.append((array, capacity * ENTRY_BYTES))
        old_array = read(HEADER.addr(self.header, "old_array"))
        if old_array != NULL:
            out.append((old_array, (capacity // 2) * ENTRY_BYTES))
        for i in range(size):
            buf = read(self._val_addr(array, i))
            if buf != NULL:
                out.append((buf, self.value_words * units.WORD_BYTES))
        return out

    # ------------------------------------------------------------------
    # recovery (Pattern 2)
    # ------------------------------------------------------------------

    def rebuild_lazy(self, view: PmView) -> None:
        """Re-run the interrupted-or-unpersisted array copy.

        If ``old_array`` is durable, the moved entries in the current
        array may have been lost with the caches; re-copy them from the
        intact old array.  Entries at indices >= the old capacity were
        appended after the growth and are durable via normal means.
        """
        read = view.read
        old_array = read(HEADER.addr(self.header, "old_array"))
        if old_array == NULL:
            return
        array = read(HEADER.addr(self.header, "array"))
        capacity = read(HEADER.addr(self.header, "capacity"))
        old_capacity = capacity // 2
        size = read(HEADER.addr(self.header, "size"))
        for i in range(min(size, old_capacity)):
            view.write(self._key_addr(array, i), read(self._key_addr(old_array, i)))
            view.write(self._val_addr(array, i), read(self._val_addr(old_array, i)))

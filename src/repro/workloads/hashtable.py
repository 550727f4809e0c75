"""Durable chained hash table (Table II: resizes at load factor 3).

Annotation sites (Section IV):

* value buffers and new node fields — fresh allocations, log-free
  (:data:`Hint.NEW_ALLOC`, Pattern 1);
* the bucket-head pointer and header pointer swings — plain logged
  stores (they mutate pre-existing data the recovery depends on);
* the element count — rebuildable by scanning, but only with semantic
  knowledge, so it is :data:`Hint.SEMANTIC` (manual annotation only);
* resize migration — nodes are *copied* into fresh nodes in a fresh
  bucket array without touching the originals, so every migrated word is
  :data:`Hint.MOVED_DATA` (lazy + log-free).  The old array is kept
  linked from the header until a later transaction clears it, which is
  what makes the Pattern-2 recovery (re-running the migration) possible;
  the hardware's working-set signature guarantees the old data cannot be
  overwritten while the moved copies are still volatile.
"""

from __future__ import annotations

from typing import Dict, List, Optional, Tuple

from repro.alloc.objects import NULL, layout
from repro.common import units
from repro.common.errors import RecoveryError
from repro.recovery.engine import PmView
from repro.runtime.hints import Hint
from repro.workloads.base import MemReader, Workload

HEADER = layout(
    "ht_header", ["table", "old_table", "num_buckets", "old_num_buckets", "count"]
)
NODE = layout("ht_node", ["key", "value_ptr", "value_len", "next"])

# NODE field offsets for the read walks, which add them to each node
# address instead of calling ``NODE.addr`` per field.
_KEY = NODE.offset("key")
_VALUE_PTR = NODE.offset("value_ptr")
_NEXT = NODE.offset("next")

#: Initial bucket count (power of two).
INITIAL_BUCKETS = 16

#: Resize when average chain length exceeds this (Table II: three).
MAX_LOAD = 3


def bucket_hash(key: int, num_buckets: int) -> int:
    """Deterministic bucket index."""
    x = (key ^ (key >> 33)) * 0xFF51AFD7ED558CCD & 0xFFFFFFFFFFFFFFFF
    x ^= x >> 33
    return x % num_buckets


class HashTable(Workload):
    """Chained hash table with copy-based resizing."""

    name = "hashtable"
    fuzz_ops = ("insert", "remove")

    def setup(self) -> None:
        rt = self.rt
        self.header = rt.allocator.alloc(HEADER.size)
        with rt.transaction():
            table = rt.alloc(INITIAL_BUCKETS * units.WORD_BYTES)
            for i in range(INITIAL_BUCKETS):
                rt.store(table + i * units.WORD_BYTES, NULL, Hint.NEW_ALLOC)
            rt.write_field(HEADER, self.header, "table", table)
            rt.write_field(HEADER, self.header, "old_table", NULL)
            rt.write_field(HEADER, self.header, "num_buckets", INITIAL_BUCKETS)
            rt.write_field(HEADER, self.header, "old_num_buckets", 0)
            rt.write_field(HEADER, self.header, "count", 0)

    # ------------------------------------------------------------------
    # operations
    # ------------------------------------------------------------------

    def _insert(self, key: int, value: List[int]) -> None:
        rt = self.rt
        self._retire_old_table()
        table = rt.read_field(HEADER, self.header, "table")
        num_buckets = rt.read_field(HEADER, self.header, "num_buckets")
        count = rt.read_field(HEADER, self.header, "count")

        slot = table + bucket_hash(key, num_buckets) * units.WORD_BYTES
        head = rt.load(slot)
        node = head
        while node != NULL:
            if rt.read_field(NODE, node, "key") == key:
                old = rt.read_field(NODE, node, "value_ptr")
                self._replace_value(NODE.addr(node, "value_ptr"), old, value)
                return
            node = rt.read_field(NODE, node, "next")

        buf = self._write_value_buffer(value)
        new_node = rt.alloc_struct(NODE)
        rt.write_field(NODE, new_node, "key", key, Hint.NEW_ALLOC)
        rt.write_field(NODE, new_node, "value_ptr", buf, Hint.NEW_ALLOC)
        rt.write_field(NODE, new_node, "value_len", len(value), Hint.NEW_ALLOC)
        rt.write_field(NODE, new_node, "next", head, Hint.NEW_ALLOC)
        rt.store(slot, new_node)  # logged: links into pre-existing array
        rt.write_field(HEADER, self.header, "count", count + 1, Hint.SEMANTIC)

        if count + 1 > MAX_LOAD * num_buckets:
            self._resize(table, num_buckets)

    def _remove(self, key: int) -> bool:
        """Unlink and free the node (Pattern 1 on the freed region)."""
        rt = self.rt
        self._retire_old_table()
        table = rt.read_field(HEADER, self.header, "table")
        num_buckets = rt.read_field(HEADER, self.header, "num_buckets")
        count = rt.read_field(HEADER, self.header, "count")

        slot = table + bucket_hash(key, num_buckets) * units.WORD_BYTES
        pred = NULL
        node = rt.load(slot)
        while node != NULL:
            if rt.read_field(NODE, node, "key") == key:
                break
            pred = node
            node = rt.read_field(NODE, node, "next")
        if node == NULL:
            return False

        nxt = rt.read_field(NODE, node, "next")
        if pred == NULL:
            rt.store(slot, nxt)  # logged: bucket head
        else:
            rt.write_field(NODE, pred, "next", nxt)  # logged
        rt.write_field(HEADER, self.header, "count", count - 1, Hint.SEMANTIC)
        # Poison the dying node: freed at commit, so the tombstone never
        # needs persisting — but it stays logged (lazy-but-logged), since
        # a rollback resurrects the node and must get its contents back.
        buf = rt.read_field(NODE, node, "value_ptr")
        rt.write_field(NODE, node, "key", 0xDEAD, Hint.TOMBSTONE)
        rt.write_field(NODE, node, "value_ptr", NULL, Hint.TOMBSTONE)
        rt.free(node)
        if buf != NULL:
            rt.free(buf)
        return True

    def _retire_old_table(self) -> None:
        """Free the previous bucket array and its nodes, once the header
        says a resize happened earlier.  The store clearing ``old_table``
        hits the resize transaction's working-set signature, so the
        hardware persists the moved (lazy) copies before this update can
        take effect — only then is the old data safe to reuse."""
        rt = self.rt
        old_table = rt.read_field(HEADER, self.header, "old_table")
        if old_table == NULL:
            return
        old_n = rt.read_field(HEADER, self.header, "old_num_buckets")
        rt.write_field(HEADER, self.header, "old_table", NULL)
        rt.write_field(HEADER, self.header, "old_num_buckets", 0)
        # Volatile reclamation: walking the dead chains costs no stores.
        read = self.reader()
        for i in range(old_n):
            node = read(old_table + i * units.WORD_BYTES)
            while node != NULL:
                nxt = read(NODE.addr(node, "next"))
                rt.free(node)
                node = nxt
        rt.free(old_table)

    def _resize(self, old_table: int, old_n: int) -> None:
        """Copy-based rehash: fresh array, fresh nodes, originals intact."""
        rt = self.rt
        new_n = old_n * 2
        new_table = rt.alloc(new_n * units.WORD_BYTES)
        heads: Dict[int, int] = {i: NULL for i in range(new_n)}
        for i in range(old_n):
            node = rt.load(old_table + i * units.WORD_BYTES)
            while node != NULL:
                key = rt.read_field(NODE, node, "key")
                copy = rt.alloc_struct(NODE)
                b = bucket_hash(key, new_n)
                rt.write_field(NODE, copy, "key", key, Hint.MOVED_DATA)
                rt.write_field(
                    NODE, copy, "value_ptr",
                    rt.read_field(NODE, node, "value_ptr"), Hint.MOVED_DATA,
                )
                rt.write_field(
                    NODE, copy, "value_len",
                    rt.read_field(NODE, node, "value_len"), Hint.MOVED_DATA,
                )
                rt.write_field(NODE, copy, "next", heads[b], Hint.MOVED_DATA)
                heads[b] = copy
                node = rt.read_field(NODE, node, "next")
        for b in range(new_n):
            rt.store(new_table + b * units.WORD_BYTES, heads[b], Hint.MOVED_DATA)
        rt.write_field(HEADER, self.header, "old_table", old_table)
        rt.write_field(HEADER, self.header, "old_num_buckets", old_n)
        rt.write_field(HEADER, self.header, "table", new_table)
        rt.write_field(HEADER, self.header, "num_buckets", new_n)

    # ------------------------------------------------------------------
    # validation
    # ------------------------------------------------------------------

    def _lookup(self, key: int, read: MemReader) -> Optional[int]:
        table = read(HEADER.addr(self.header, "table"))
        num_buckets = read(HEADER.addr(self.header, "num_buckets"))
        if num_buckets == 0:
            return None
        node = read(table + bucket_hash(key, num_buckets) * units.WORD_BYTES)
        limit = self.walk_limit()
        steps = 0
        while node != NULL:
            if read(node + _KEY) == key:
                return read(node + _VALUE_PTR)
            node = read(node + _NEXT)
            steps += 1
            if steps > limit:
                raise RecoveryError("hashtable: cycle in bucket chain")
        return None

    def check_integrity(self, read: MemReader) -> None:
        table = read(HEADER.addr(self.header, "table"))
        num_buckets = read(HEADER.addr(self.header, "num_buckets"))
        count = read(HEADER.addr(self.header, "count"))
        if num_buckets < INITIAL_BUCKETS or num_buckets & (num_buckets - 1):
            raise RecoveryError(f"hashtable: bad bucket count {num_buckets}")
        total = 0
        limit = self.walk_limit()
        for b in range(num_buckets):
            node = read(table + b * units.WORD_BYTES)
            steps = 0
            while node != NULL:
                key = read(NODE.addr(node, "key"))
                if bucket_hash(key, num_buckets) != b:
                    raise RecoveryError(
                        f"hashtable: key {key} in wrong bucket {b}"
                    )
                total += 1
                node = read(NODE.addr(node, "next"))
                steps += 1
                if steps > limit:
                    raise RecoveryError("hashtable: cycle in bucket chain")
        if count != total:
            raise RecoveryError(
                f"hashtable: count {count} != {total} reachable nodes"
            )

    def iter_keys(self, read: MemReader) -> List[int]:
        table = read(HEADER.addr(self.header, "table"))
        num_buckets = read(HEADER.addr(self.header, "num_buckets"))
        keys: List[int] = []
        append = keys.append
        limit = self.walk_limit()
        for b in range(num_buckets):
            node = read(table + b * units.WORD_BYTES)
            steps = 0
            while node != NULL:
                append(read(node + _KEY))
                node = read(node + _NEXT)
                steps += 1
                if steps > limit:
                    raise RecoveryError("hashtable: cycle in bucket chain")
        return keys

    def reachable(self, read: MemReader) -> List[Tuple[int, int]]:
        out: List[Tuple[int, int]] = [(self.header, HEADER.size)]
        for table_field, n_field in (
            ("table", "num_buckets"),
            ("old_table", "old_num_buckets"),
        ):
            table = read(HEADER.addr(self.header, table_field))
            n = read(HEADER.addr(self.header, n_field))
            if table == NULL:
                continue
            out.append((table, n * units.WORD_BYTES))
            for b in range(n):
                node = read(table + b * units.WORD_BYTES)
                while node != NULL:
                    out.append((node, NODE.size))
                    buf = read(NODE.addr(node, "value_ptr"))
                    vlen = read(NODE.addr(node, "value_len"))
                    if buf != NULL:
                        out.append((buf, vlen * units.WORD_BYTES))
                    node = read(NODE.addr(node, "next"))
        return out

    # ------------------------------------------------------------------
    # recovery (Pattern 2)
    # ------------------------------------------------------------------

    def rebuild_lazy(self, view: PmView) -> None:
        """Re-run the interrupted-or-unpersisted migration and recount.

        If ``old_table`` is durable, the moved copies may have been lost
        with the caches; the whole migration is re-executed from the
        intact old chains into fresh nodes.  The element count, being a
        lazily persistent semantic variable, is always recomputed.
        """
        read = view.read
        old_table = read(HEADER.addr(self.header, "old_table"))
        if old_table != NULL:
            self._remigrate(view, old_table)
        self._recount(view)

    def _remigrate(self, view: PmView, old_table: int) -> None:
        rt = self.rt
        read = view.read
        old_n = read(HEADER.addr(self.header, "old_num_buckets"))
        new_table = read(HEADER.addr(self.header, "table"))
        new_n = read(HEADER.addr(self.header, "num_buckets"))
        heads: Dict[int, int] = {i: NULL for i in range(new_n)}
        for i in range(old_n):
            node = read(old_table + i * units.WORD_BYTES)
            while node != NULL:
                key = read(NODE.addr(node, "key"))
                copy = rt.allocator.alloc(NODE.size)
                b = bucket_hash(key, new_n)
                view.write(NODE.addr(copy, "key"), key)
                view.write(
                    NODE.addr(copy, "value_ptr"), read(NODE.addr(node, "value_ptr"))
                )
                view.write(
                    NODE.addr(copy, "value_len"), read(NODE.addr(node, "value_len"))
                )
                view.write(NODE.addr(copy, "next"), heads[b])
                heads[b] = copy
                node = read(NODE.addr(node, "next"))
        for b in range(new_n):
            view.write(new_table + b * units.WORD_BYTES, heads[b])

    def _recount(self, view: PmView) -> None:
        read = view.read
        table = read(HEADER.addr(self.header, "table"))
        num_buckets = read(HEADER.addr(self.header, "num_buckets"))
        total = 0
        for b in range(num_buckets):
            node = read(table + b * units.WORD_BYTES)
            while node != NULL:
                total += 1
                node = read(NODE.addr(node, "next"))
        view.write(HEADER.addr(self.header, "count"), total)

"""Composite multi-structure workload: map + queue + counter.

One insert is a **multi-structure transaction** — the shape the service
lock manager exists for (cf. Marathe et al.'s lock-manager-mediated PM
transactions): a hashtable insert, a FIFO-queue push of the key, and a
monotone event-counter bump, all inside one durable transaction.  The
three structures carry distinct annotation profiles, so the composite
exercises every selective-logging pattern at once:

* **map** — a full :class:`~repro.workloads.hashtable.HashTable`
  sub-instance (NEW_ALLOC nodes, logged head swings, SEMANTIC count,
  MOVED_DATA resizes);
* **queue** — a durable singly linked FIFO: node fields are fresh
  allocations (log-free), the head/next link is a plain logged store,
  and the ``tail`` pointer is :data:`~repro.runtime.hints.Hint.
  REDUNDANT` — fully derivable by walking the ``next`` chain, so it
  needs neither logging nor eager persistence (the paper's Figure-1
  argument applied to a tail pointer);
* **counter** — one logged durable word, incremented per insert event.

Cross-structure invariant (what the service crash campaign checks on
the durable image): the counter word, the queue length and the number
of insert events agree at every commit point — a crash can never
separate a map insert from its queue push or counter bump.
"""

from __future__ import annotations

from typing import List, Optional, Tuple

from repro.alloc.objects import NULL, layout
from repro.common import units
from repro.common.errors import RecoveryError
from repro.recovery.engine import PmView
from repro.runtime.hints import Hint
from repro.workloads.base import MemReader, Workload
from repro.workloads.hashtable import HashTable

MS_HEADER = layout("ms_header", ["head", "tail", "length", "counter"])
QNODE = layout("ms_qnode", ["key", "next"])


class MultiStruct(Workload):
    """Map + FIFO queue + counter behind one insert transaction."""

    name = "multistruct"
    fuzz_ops = ("insert",)
    #: Named structures one insert locks (canonical set for the
    #: service lock manager; acquired in sorted order).
    lock_structures = ("counter", "map", "queue")

    def setup(self) -> None:
        rt = self.rt
        # The sub-map runs its own setup transaction first.
        self.map = HashTable(rt, value_bytes=self.value_bytes)
        self.header = rt.allocator.alloc(MS_HEADER.size)
        with rt.transaction():
            rt.write_field(MS_HEADER, self.header, "head", NULL)
            rt.write_field(MS_HEADER, self.header, "tail", NULL)
            rt.write_field(MS_HEADER, self.header, "length", 0)
            rt.write_field(MS_HEADER, self.header, "counter", 0)

    # ------------------------------------------------------------------
    # operations
    # ------------------------------------------------------------------

    def _insert(self, key: int, value: List[int]) -> None:
        rt = self.rt
        # 1. map insert (the full hashtable algorithm, resizes included)
        self.map._insert(key, value)
        # 2. queue push: fresh node, logged link, redundant tail
        node = rt.alloc_struct(QNODE)
        rt.write_field(QNODE, node, "key", key, Hint.NEW_ALLOC)
        rt.write_field(QNODE, node, "next", NULL, Hint.NEW_ALLOC)
        tail = rt.read_field(MS_HEADER, self.header, "tail")
        if tail == NULL:
            rt.write_field(MS_HEADER, self.header, "head", node)  # logged
        else:
            rt.write_field(QNODE, tail, "next", node)  # logged
        rt.write_field(MS_HEADER, self.header, "tail", node, Hint.REDUNDANT)
        length = rt.read_field(MS_HEADER, self.header, "length")
        rt.write_field(
            MS_HEADER, self.header, "length", length + 1, Hint.SEMANTIC
        )
        # 3. counter bump: one logged durable word
        counter = rt.read_field(MS_HEADER, self.header, "counter")
        rt.write_field(MS_HEADER, self.header, "counter", counter + 1)

    # ------------------------------------------------------------------
    # validation
    # ------------------------------------------------------------------

    def _lookup(self, key: int, read: MemReader) -> Optional[int]:
        return self.map._lookup(key, read)

    def iter_keys(self, read: MemReader) -> List[int]:
        return self.map.iter_keys(read)

    def _walk_queue(self, read: MemReader) -> List[int]:
        """The queue's keys in push order (cycle-guarded)."""
        keys: List[int] = []
        node = read(MS_HEADER.addr(self.header, "head"))
        limit = read(MS_HEADER.addr(self.header, "counter")) + 16
        while node != NULL:
            keys.append(read(QNODE.addr(node, "key")))
            node = read(QNODE.addr(node, "next"))
            if len(keys) > limit:
                raise RecoveryError("multistruct: cycle in queue chain")
        return keys

    def queue_keys(self, read: MemReader) -> List[int]:
        """Committed push order as visible through *read*."""
        return self._walk_queue(read)

    def counter_value(self, read: MemReader) -> int:
        """The durable event counter as visible through *read*."""
        return read(MS_HEADER.addr(self.header, "counter"))

    def check_integrity(self, read: MemReader) -> None:
        self.map.check_integrity(read)
        chain = self._walk_queue(read)
        length = read(MS_HEADER.addr(self.header, "length"))
        counter = read(MS_HEADER.addr(self.header, "counter"))
        tail = read(MS_HEADER.addr(self.header, "tail"))
        if len(chain) != length:
            raise RecoveryError(
                f"multistruct: queue length {length} != {len(chain)} "
                "reachable nodes"
            )
        if counter != len(chain):
            raise RecoveryError(
                f"multistruct: counter {counter} != queue length "
                f"{len(chain)} (cross-structure atomicity broken)"
            )
        if chain:
            node = read(MS_HEADER.addr(self.header, "head"))
            last = node
            while node != NULL:
                last = node
                node = read(QNODE.addr(node, "next"))
            if tail != last:
                raise RecoveryError("multistruct: tail does not reach last node")
        elif tail != NULL:
            raise RecoveryError("multistruct: tail set on an empty queue")
        map_keys = set(self.map.iter_keys(read))
        if map_keys != set(chain):
            raise RecoveryError(
                f"multistruct: map holds {len(map_keys)} distinct keys, "
                f"queue saw {len(set(chain))}"
            )

    def reachable(self, read: MemReader) -> List[Tuple[int, int]]:
        out = self.map.reachable(read)
        out.append((self.header, MS_HEADER.size))
        node = read(MS_HEADER.addr(self.header, "head"))
        guard = read(MS_HEADER.addr(self.header, "counter")) + 16
        steps = 0
        while node != NULL and steps <= guard:
            out.append((node, QNODE.size))
            node = read(QNODE.addr(node, "next"))
            steps += 1
        return out

    # ------------------------------------------------------------------
    # recovery (Pattern 2)
    # ------------------------------------------------------------------

    def rebuild_lazy(self, view: PmView) -> None:
        """Rebuild the redundant tail and the semantic length by walking
        the logged ``head``/``next`` chain, then let the sub-map re-run
        its own lazy rebuild (migration replay + recount)."""
        read = view.read
        node = read(MS_HEADER.addr(self.header, "head"))
        last = NULL
        count = 0
        while node != NULL:
            last = node
            count += 1
            node = read(QNODE.addr(node, "next"))
        view.write(MS_HEADER.addr(self.header, "tail"), last)
        view.write(MS_HEADER.addr(self.header, "length"), count)
        self.map.rebuild_lazy(view)

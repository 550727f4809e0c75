"""Sorted doubly-linked list — the paper's Figure-1 motivating example.

Inserting node *x* between *pos* and *succ* takes four pointer writes:

1. ``x.prev = pos``   — into the fresh node: :data:`Hint.NEW_ALLOC`;
2. ``x.next = succ``  — into the fresh node: :data:`Hint.NEW_ALLOC`;
3. ``pos.next = x``   — the *one* logged store: it is what recovery
   trusts (the ``next`` chain is the ground truth);
4. ``succ.prev = x``  — :data:`Hint.REDUNDANT`: the bidirectional
   linkage makes ``prev`` fully derivable from ``next``, so it needs
   neither a log record nor eager persistence.  This is exactly the
   insight the paper's introduction builds on ("the bi-directional
   linkage in the data structure provides some redundant information
   enough for recovery").

Recovery is the paper's Figure 1(d): after the undo log rolls back the
interrupted ``next`` write, one forward walk re-derives every ``prev``
pointer; the leaked node is reclaimed by the Pattern-1 GC.

The list keeps a permanent head sentinel so insertion never rewrites the
root pointer.
"""

from __future__ import annotations

from typing import List, Optional, Set, Tuple

from repro.alloc.objects import NULL, layout
from repro.common import units
from repro.common.errors import RecoveryError
from repro.recovery.engine import PmView
from repro.runtime.hints import Hint
from repro.workloads.base import MemReader, Workload

HEADER = layout("dl_header", ["head"])
NODE = layout("dl_node", ["key", "value_ptr", "value_len", "next", "prev"])

#: Sentinel key smaller than every real key.
SENTINEL_KEY = -1


class DoublyLinkedList(Workload):
    """Sorted doubly-linked list with redundant prev pointers."""

    name = "dlist"
    fuzz_ops = ("insert", "remove")

    def setup(self) -> None:
        rt = self.rt
        self.header = rt.allocator.alloc(HEADER.size)
        with rt.transaction():
            head = rt.alloc_struct(NODE)
            rt.write_field(NODE, head, "key", SENTINEL_KEY, Hint.NEW_ALLOC)
            rt.write_field(NODE, head, "value_ptr", NULL, Hint.NEW_ALLOC)
            rt.write_field(NODE, head, "value_len", 0, Hint.NEW_ALLOC)
            rt.write_field(NODE, head, "next", NULL, Hint.NEW_ALLOC)
            rt.write_field(NODE, head, "prev", NULL, Hint.NEW_ALLOC)
            rt.write_field(HEADER, self.header, "head", head)
        self.head = head

    # ------------------------------------------------------------------
    # insert (Figure 1)
    # ------------------------------------------------------------------

    def _insert(self, key: int, value: List[int]) -> None:
        rt = self.rt
        pos = self.head
        nxt = rt.read_field(NODE, pos, "next")
        while nxt != NULL:
            nkey = rt.read_field(NODE, nxt, "key")
            if nkey == key:
                old = rt.read_field(NODE, nxt, "value_ptr")
                self._replace_value(NODE.addr(nxt, "value_ptr"), old, value)
                return
            if nkey > key:
                break
            pos = nxt
            nxt = rt.read_field(NODE, nxt, "next")

        buf = self._write_value_buffer(value)
        x = rt.alloc_struct(NODE)
        rt.write_field(NODE, x, "key", key, Hint.NEW_ALLOC)
        rt.write_field(NODE, x, "value_ptr", buf, Hint.NEW_ALLOC)
        rt.write_field(NODE, x, "value_len", len(value), Hint.NEW_ALLOC)
        rt.write_field(NODE, x, "next", nxt, Hint.NEW_ALLOC)
        rt.write_field(NODE, x, "prev", pos, Hint.NEW_ALLOC)
        # The single logged write: splice into the ground-truth chain.
        rt.write_field(NODE, pos, "next", x)
        # The redundant write: derivable from the next chain (Fig. 1(d)).
        if nxt != NULL:
            rt.write_field(NODE, nxt, "prev", x, Hint.REDUNDANT)

    def _remove(self, key: int) -> bool:
        """Figure 1 in reverse: one logged unlink; prev repair redundant."""
        rt = self.rt
        pred = self.head
        node = rt.read_field(NODE, pred, "next")
        while node != NULL:
            nkey = rt.read_field(NODE, node, "key")
            if nkey == key:
                break
            if nkey > key:
                return False
            pred = node
            node = rt.read_field(NODE, node, "next")
        if node == NULL:
            return False

        nxt = rt.read_field(NODE, node, "next")
        rt.write_field(NODE, pred, "next", nxt)  # the one logged write
        if nxt != NULL:
            rt.write_field(NODE, nxt, "prev", pred, Hint.REDUNDANT)
        buf = rt.read_field(NODE, node, "value_ptr")
        rt.write_field(NODE, node, "key", 0xDEAD, Hint.TOMBSTONE)
        rt.free(node)
        if buf != NULL:
            rt.free(buf)
        return True

    # ------------------------------------------------------------------
    # validation
    # ------------------------------------------------------------------

    def _lookup(self, key: int, read: MemReader) -> Optional[int]:
        node = read(NODE.addr(self.head, "next"))
        limit = self.walk_limit()
        steps = 0
        while node != NULL:
            nkey = read(NODE.addr(node, "key"))
            if nkey == key:
                return read(NODE.addr(node, "value_ptr"))
            if nkey > key:
                return None
            node = read(NODE.addr(node, "next"))
            steps += 1
            if steps > limit:
                raise RecoveryError("dlist: cycle in next chain")
        return None

    def check_integrity(self, read: MemReader) -> None:
        """Sorted order plus prev/next mutual consistency."""
        seen: Set[int] = set()
        prev = self.head
        node = read(NODE.addr(self.head, "next"))
        last_key = SENTINEL_KEY
        while node != NULL:
            if node in seen:
                raise RecoveryError("dlist: cycle in next chain")
            seen.add(node)
            key = read(NODE.addr(node, "key"))
            if key <= last_key:
                raise RecoveryError(f"dlist: keys out of order at {key}")
            if read(NODE.addr(node, "prev")) != prev:
                raise RecoveryError(f"dlist: broken prev pointer at key {key}")
            last_key = key
            prev = node
            node = read(NODE.addr(node, "next"))

    def iter_keys(self, read: MemReader) -> List[int]:
        keys: List[int] = []
        seen: Set[int] = set()
        node = read(NODE.addr(self.head, "next"))
        while node != NULL:
            if node in seen:
                raise RecoveryError("dlist: cycle in next chain")
            seen.add(node)
            keys.append(read(NODE.addr(node, "key")))
            node = read(NODE.addr(node, "next"))
        return keys

    def reachable(self, read: MemReader) -> List[Tuple[int, int]]:
        out: List[Tuple[int, int]] = [(self.header, HEADER.size), (self.head, NODE.size)]
        node = read(NODE.addr(self.head, "next"))
        while node != NULL:
            out.append((node, NODE.size))
            buf = read(NODE.addr(node, "value_ptr"))
            vlen = read(NODE.addr(node, "value_len"))
            if buf != NULL:
                out.append((buf, vlen * units.WORD_BYTES))
            node = read(NODE.addr(node, "next"))
        return out

    # ------------------------------------------------------------------
    # recovery: Figure 1(d)
    # ------------------------------------------------------------------

    def rebuild_lazy(self, view: PmView) -> None:
        """Re-derive every prev pointer from the next chain."""
        prev = self.head
        view.write(NODE.addr(self.head, "prev"), NULL)
        node = view.read(NODE.addr(self.head, "next"))
        while node != NULL:
            view.write(NODE.addr(node, "prev"), prev)
            prev = node
            node = view.read(NODE.addr(node, "next"))

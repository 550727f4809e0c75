"""KV store backed by a B-tree (PMDK pmemkv "btree" engine equivalent).

Order-8 B-tree: up to 7 entries and 8 children per node, preemptive
splitting on the way down (CLRS).  Annotation sites:

* value buffers — :data:`Hint.NEW_ALLOC`;
* every field of a node created by a split (the new sibling receives the
  upper half of the full child's entries) — :data:`Hint.NEW_ALLOC`:
  on a mid-transaction crash the new node is simply leaked and the
  logged ``n`` counters roll back, leaving the moved entries physically
  intact in the old node;
* entry writes into the *dead* slot at index ``n`` (append position) —
  :data:`Hint.NEW_ALLOC`: rollback restores ``n``, making the slot dead.
  Only for a node whose ``n`` the running transaction has not lowered:
  a split lowers the split child's ``n`` with a logged store, so
  rollback revives the slots past the new ``n`` and a store there needs
  its pre-image;
* shifts of live entries and all counter/child updates on existing
  nodes — plain logged stores.
"""

from __future__ import annotations

from typing import List, Optional, Set, Tuple

from repro.alloc.objects import NULL, layout
from repro.common import units
from repro.common.errors import RecoveryError
from repro.runtime.hints import Hint
from repro.workloads.base import MemReader, Workload

#: Maximum entries per node (order 8: 7 keys, 8 children).
MAX_KEYS = 7
MIN_DEGREE = 4  # t: split at 2t-1 = 7 keys

HEADER = layout("bt_header", ["root"])

_node_fields = ["n", "leaf"]
_node_fields += [f"key{i}" for i in range(MAX_KEYS)]
_node_fields += [f"vptr{i}" for i in range(MAX_KEYS)]
_node_fields += [f"vlen{i}" for i in range(MAX_KEYS)]
_node_fields += [f"child{i}" for i in range(MAX_KEYS + 1)]
NODE = layout("bt_node", _node_fields)


class BTreeKV(Workload):
    """Key-value store over an order-8 B-tree."""

    name = "kv-btree"

    def setup(self) -> None:
        rt = self.rt
        #: Nodes whose ``n`` transaction ``_shrunk_tx`` lowered.
        self._shrunk: Set[int] = set()
        self._shrunk_tx: Optional[int] = None
        self.header = rt.allocator.alloc(HEADER.size)
        with rt.transaction():
            rt.write_field(HEADER, self.header, "root", NULL)

    # --- simulated accessors ------------------------------------------------

    def _get(self, node: int, field: str) -> int:
        return self.rt.read_field(NODE, node, field)

    def _set(self, node: int, field: str, value: int, hint: Hint = Hint.NONE) -> None:
        self.rt.write_field(NODE, node, field, value, hint)

    def _shrunk_nodes(self) -> Set[int]:
        """Nodes whose ``n`` the running transaction lowered.  Kept per
        transaction, not per insert: a service batch runs several
        inserts in one transaction."""
        tx_seq = self.rt.machine.current_tx_seq
        if tx_seq != self._shrunk_tx:
            self._shrunk_tx, self._shrunk = tx_seq, set()
        return self._shrunk

    def _dead_slot_hint(self, node: int) -> Hint:
        """Hint for a store into *node*'s slot ``n``: log-free while that
        slot was dead when the running transaction began."""
        return Hint.NONE if node in self._shrunk_nodes() else Hint.NEW_ALLOC

    def _new_node(self, *, leaf: bool) -> int:
        """Allocate a node; every initialising store is log-free."""
        node = self.rt.alloc_struct(NODE)
        self._set(node, "n", 0, Hint.NEW_ALLOC)
        self._set(node, "leaf", 1 if leaf else 0, Hint.NEW_ALLOC)
        for i in range(MAX_KEYS + 1):
            self._set(node, f"child{i}", NULL, Hint.NEW_ALLOC)
        return node

    # ------------------------------------------------------------------
    # insert
    # ------------------------------------------------------------------

    def _insert(self, key: int, value: List[int]) -> None:
        rt = self.rt
        root = rt.read_field(HEADER, self.header, "root")
        if root == NULL:
            root = self._new_node(leaf=True)
            rt.write_field(HEADER, self.header, "root", root)
        if self._get(root, "n") == MAX_KEYS:
            new_root = self._new_node(leaf=False)
            self._set(new_root, "child0", root, Hint.NEW_ALLOC)
            self._split_child(new_root, 0)
            rt.write_field(HEADER, self.header, "root", new_root)
            root = new_root
        self._insert_nonfull(root, key, value)

    def _insert_nonfull(self, node: int, key: int, value: List[int]) -> None:
        while True:
            n = self._get(node, "n")
            # Update in place if the key already exists at this node.
            idx = n
            for i in range(n):
                k = self._get(node, f"key{i}")
                if key == k:
                    old = self._get(node, f"vptr{i}")
                    self._replace_value(NODE.addr(node, f"vptr{i}"), old, value)
                    return
                if key < k:
                    idx = i
                    break
            if self._get(node, "leaf"):
                self._leaf_insert(node, idx, n, key, value)
                return
            child = self._get(node, f"child{idx}")
            if self._get(child, "n") == MAX_KEYS:
                self._split_child(node, idx)
                median = self._get(node, f"key{idx}")
                if key == median:
                    old = self._get(node, f"vptr{idx}")
                    self._replace_value(NODE.addr(node, f"vptr{idx}"), old, value)
                    return
                if key > median:
                    idx += 1
                child = self._get(node, f"child{idx}")
            node = child

    def _leaf_insert(self, node: int, idx: int, n: int, key: int, value: List[int]) -> None:
        buf = self._write_value_buffer(value)
        # Shift entries right; the write into slot `j` when j == n lands
        # in dead space (beyond the logged count) and needs no pre-image
        # unless a split in this transaction lowered `n`.
        dead = self._dead_slot_hint(node)
        for j in range(n, idx, -1):
            hint = dead if j == n else Hint.NONE
            self._set(node, f"key{j}", self._get(node, f"key{j-1}"), hint)
            self._set(node, f"vptr{j}", self._get(node, f"vptr{j-1}"), hint)
            self._set(node, f"vlen{j}", self._get(node, f"vlen{j-1}"), hint)
        hint = dead if idx == n else Hint.NONE
        self._set(node, f"key{idx}", key, hint)
        self._set(node, f"vptr{idx}", buf, hint)
        self._set(node, f"vlen{idx}", len(value), hint)
        self._set(node, "n", n + 1)

    def _split_child(self, parent: int, idx: int) -> None:
        """Split the full child at *idx*; median moves up to the parent."""
        child = self._get(parent, f"child{idx}")
        right = self._new_node(leaf=bool(self._get(child, "leaf")))
        t = MIN_DEGREE
        # Upper t-1 entries move (copy, originals untouched) to the new node.
        for j in range(t - 1):
            self._set(right, f"key{j}", self._get(child, f"key{j + t}"), Hint.NEW_ALLOC)
            self._set(right, f"vptr{j}", self._get(child, f"vptr{j + t}"), Hint.NEW_ALLOC)
            self._set(right, f"vlen{j}", self._get(child, f"vlen{j + t}"), Hint.NEW_ALLOC)
        if not self._get(child, "leaf"):
            for j in range(t):
                self._set(
                    right, f"child{j}", self._get(child, f"child{j + t}"), Hint.NEW_ALLOC
                )
        self._set(right, "n", t - 1, Hint.NEW_ALLOC)
        self._set(child, "n", t - 1)  # logged: shrinks the live region
        self._shrunk_nodes().add(child)

        pn = self._get(parent, "n")
        dead = self._dead_slot_hint(parent)
        for j in range(pn, idx, -1):
            hint = dead if j == pn else Hint.NONE
            self._set(parent, f"child{j + 1}", self._get(parent, f"child{j}"), hint)
            self._set(parent, f"key{j}", self._get(parent, f"key{j-1}"), hint)
            self._set(parent, f"vptr{j}", self._get(parent, f"vptr{j-1}"), hint)
            self._set(parent, f"vlen{j}", self._get(parent, f"vlen{j-1}"), hint)
        hint = dead if idx == pn else Hint.NONE
        self._set(parent, f"key{idx}", self._get(child, f"key{t - 1}"), hint)
        self._set(parent, f"vptr{idx}", self._get(child, f"vptr{t - 1}"), hint)
        self._set(parent, f"vlen{idx}", self._get(child, f"vlen{t - 1}"), hint)
        self._set(parent, f"child{idx + 1}", right, hint)
        self._set(parent, "n", pn + 1)

    # ------------------------------------------------------------------
    # validation
    # ------------------------------------------------------------------

    def _lookup(self, key: int, read: MemReader) -> Optional[int]:
        node = read(HEADER.addr(self.header, "root"))
        depth = 0
        while node != NULL:
            n = read(NODE.addr(node, "n"))
            idx = n
            for i in range(n):
                k = read(NODE.addr(node, f"key{i}"))
                if key == k:
                    return read(NODE.addr(node, f"vptr{i}"))
                if key < k:
                    idx = i
                    break
            if read(NODE.addr(node, "leaf")):
                return None
            node = read(NODE.addr(node, f"child{idx}"))
            depth += 1
            if depth > 32:
                raise RecoveryError("btree: descent too deep (cycle?)")
        return None

    def check_integrity(self, read: MemReader) -> None:
        root = read(HEADER.addr(self.header, "root"))
        if root == NULL:
            return
        seen: Set[int] = set()
        self._check_node(read, root, None, None, seen, is_root=True)
        depths = set()
        self._leaf_depths(read, root, 0, depths)
        if len(depths) > 1:
            raise RecoveryError(f"btree: uneven leaf depths {depths}")

    def _check_node(
        self,
        read: MemReader,
        node: int,
        lo: Optional[int],
        hi: Optional[int],
        seen: Set[int],
        *,
        is_root: bool = False,
    ) -> None:
        if node in seen:
            raise RecoveryError("btree: node reachable twice")
        seen.add(node)
        n = read(NODE.addr(node, "n"))
        if not 0 <= n <= MAX_KEYS:
            raise RecoveryError(f"btree: bad entry count {n}")
        if not is_root and n < MIN_DEGREE - 1:
            raise RecoveryError(f"btree: underfull non-root node ({n} keys)")
        keys = [read(NODE.addr(node, f"key{i}")) for i in range(n)]
        if keys != sorted(keys) or len(set(keys)) != n:
            raise RecoveryError("btree: keys not strictly sorted")
        for k in keys:
            if (lo is not None and k <= lo) or (hi is not None and k >= hi):
                raise RecoveryError(f"btree: key {k} out of range")
        if not read(NODE.addr(node, "leaf")):
            bounds = [lo] + keys + [hi]
            for i in range(n + 1):
                child = read(NODE.addr(node, f"child{i}"))
                if child == NULL:
                    raise RecoveryError("btree: missing child")
                self._check_node(read, child, bounds[i], bounds[i + 1], seen)

    def _leaf_depths(self, read: MemReader, node: int, depth: int, out: Set[int]) -> None:
        if read(NODE.addr(node, "leaf")):
            out.add(depth)
            return
        n = read(NODE.addr(node, "n"))
        for i in range(n + 1):
            self._leaf_depths(read, read(NODE.addr(node, f"child{i}")), depth + 1, out)

    def iter_keys(self, read: MemReader) -> List[int]:
        keys: List[int] = []
        seen: Set[int] = set()
        root = read(HEADER.addr(self.header, "root"))
        stack = [root] if root != NULL else []
        while stack:
            node = stack.pop()
            if node in seen:
                raise RecoveryError("btree: node reachable twice")
            seen.add(node)
            n = read(NODE.addr(node, "n"))
            for i in range(n):
                keys.append(read(NODE.addr(node, f"key{i}")))
            if not read(NODE.addr(node, "leaf")):
                for i in range(n + 1):
                    child = read(NODE.addr(node, f"child{i}"))
                    if child != NULL:
                        stack.append(child)
        return keys

    def reachable(self, read: MemReader) -> List[Tuple[int, int]]:
        out: List[Tuple[int, int]] = [(self.header, HEADER.size)]
        root = read(HEADER.addr(self.header, "root"))
        stack = [root] if root != NULL else []
        while stack:
            node = stack.pop()
            out.append((node, NODE.size))
            n = read(NODE.addr(node, "n"))
            for i in range(n):
                buf = read(NODE.addr(node, f"vptr{i}"))
                vlen = read(NODE.addr(node, f"vlen{i}"))
                if buf != NULL:
                    out.append((buf, vlen * units.WORD_BYTES))
            if not read(NODE.addr(node, "leaf")):
                for i in range(n + 1):
                    child = read(NODE.addr(node, f"child{i}"))
                    if child != NULL:
                        stack.append(child)
        return out

"""Durable AVL tree (Table II: no parent pointers; heights per node).

Insertion walks down recording the path (no parent pointers, as in the
paper's variant), then rebalances bottom-up with single/double rotations.

Annotation sites:

* new node and value-buffer fields — :data:`Hint.NEW_ALLOC`;
* child-pointer updates on existing nodes (rotations, attachment) and
  the root pointer — plain logged stores (they define the shape);
* **heights** — :data:`Hint.SEMANTIC`: a height is recomputable from the
  committed shape but only with AVL domain knowledge, so manual
  annotation marks it lazy and the compiler misses it; recovery
  recomputes every height bottom-up.
"""

from __future__ import annotations

from typing import List, Optional, Set

from repro.alloc.objects import NULL, layout
from repro.common.errors import RecoveryError
from repro.recovery.engine import PmView
from repro.runtime.hints import Hint
from repro.workloads.base import MemReader
from repro.workloads.bst import BinarySearchTree

HEADER = layout("avl_header", ["root"])
NODE = layout("avl_node", ["key", "value_ptr", "value_len", "left", "right", "height"])


class AVLTree(BinarySearchTree):
    """AVL tree with path-stack rebalancing."""

    name = "avl"
    HEADER = HEADER
    NODE = NODE
    fuzz_ops = ("insert", "remove")

    def setup(self) -> None:
        rt = self.rt
        self.header = rt.allocator.alloc(HEADER.size)
        with rt.transaction():
            rt.write_field(HEADER, self.header, "root", NULL)

    # --- simulated accessors -------------------------------------------------

    def _get(self, node: int, field: str) -> int:
        return self.rt.read_field(NODE, node, field)

    def _set(self, node: int, field: str, value: int, hint: Hint = Hint.NONE) -> None:
        self.rt.write_field(NODE, node, field, value, hint)

    def _height(self, node: int) -> int:
        return 0 if node == NULL else self._get(node, "height")

    # ------------------------------------------------------------------
    # insert
    # ------------------------------------------------------------------

    def _insert(self, key: int, value: List[int]) -> None:
        rt = self.rt
        root = rt.read_field(HEADER, self.header, "root")

        # Walk down, keeping the path for bottom-up rebalancing.
        path: List[int] = []
        cursor = root
        while cursor != NULL:
            ckey = self._get(cursor, "key")
            if key == ckey:
                old = self._get(cursor, "value_ptr")
                self._replace_value(NODE.addr(cursor, "value_ptr"), old, value)
                return
            path.append(cursor)
            cursor = self._get(cursor, "left" if key < ckey else "right")

        buf = self._write_value_buffer(value)
        node = rt.alloc_struct(NODE)
        self._set(node, "key", key, Hint.NEW_ALLOC)
        self._set(node, "value_ptr", buf, Hint.NEW_ALLOC)
        self._set(node, "value_len", len(value), Hint.NEW_ALLOC)
        self._set(node, "left", NULL, Hint.NEW_ALLOC)
        self._set(node, "right", NULL, Hint.NEW_ALLOC)
        self._set(node, "height", 1, Hint.NEW_ALLOC)

        if not path:
            rt.write_field(HEADER, self.header, "root", node)
            return
        parent = path[-1]
        self._set(parent, "left" if key < self._get(parent, "key") else "right", node)

        # Bottom-up: update heights, rotate where the balance breaks.
        for i in range(len(path) - 1, -1, -1):
            ancestor = path[i]
            new_sub = self._rebalance(ancestor)
            if new_sub != ancestor:
                # The subtree root changed: relink from the level above.
                if i == 0:
                    rt.write_field(HEADER, self.header, "root", new_sub)
                else:
                    grand = path[i - 1]
                    if self._get(grand, "left") == ancestor:
                        self._set(grand, "left", new_sub)
                    else:
                        self._set(grand, "right", new_sub)

    def _rebalance(self, node: int) -> int:
        """Fix heights/rotations at *node*; return the new subtree root."""
        self._update_height(node)
        balance = self._height(self._get(node, "left")) - self._height(
            self._get(node, "right")
        )
        if balance > 1:
            left = self._get(node, "left")
            if self._height(self._get(left, "left")) < self._height(
                self._get(left, "right")
            ):
                self._set(node, "left", self._rotate_left(left))
            return self._rotate_right(node)
        if balance < -1:
            right = self._get(node, "right")
            if self._height(self._get(right, "right")) < self._height(
                self._get(right, "left")
            ):
                self._set(node, "right", self._rotate_right(right))
            return self._rotate_left(node)
        return node

    def _update_height(self, node: int) -> None:
        h = 1 + max(
            self._height(self._get(node, "left")),
            self._height(self._get(node, "right")),
        )
        if self._get(node, "height") != h:
            self._set(node, "height", h, Hint.SEMANTIC)

    def _rotate_left(self, x: int) -> int:
        y = self._get(x, "right")
        self._set(x, "right", self._get(y, "left"))
        self._set(y, "left", x)
        self._update_height(x)
        self._update_height(y)
        return y

    def _rotate_right(self, x: int) -> int:
        y = self._get(x, "left")
        self._set(x, "left", self._get(y, "right"))
        self._set(y, "right", x)
        self._update_height(x)
        self._update_height(y)
        return y

    # ------------------------------------------------------------------
    # delete (successor replacement + full-path rebalance)
    # ------------------------------------------------------------------

    def _remove(self, key: int) -> bool:
        rt = self.rt
        path: List[int] = []  # ancestors of the node being examined
        node = rt.read_field(HEADER, self.header, "root")
        while node != NULL:
            nkey = self._get(node, "key")
            if key == nkey:
                break
            path.append(node)
            node = self._get(node, "left" if key < nkey else "right")
        if node == NULL:
            return False

        if self._get(node, "left") != NULL and self._get(node, "right") != NULL:
            # Two children: splice the in-order successor's payload into
            # this node (logged stores), then delete the successor.  The
            # node's original value buffer is orphaned by the splice.
            orphaned_buf = self._get(node, "value_ptr")
            path.append(node)
            succ = self._get(node, "right")
            while self._get(succ, "left") != NULL:
                path.append(succ)
                succ = self._get(succ, "left")
            self._set(node, "key", self._get(succ, "key"))
            self._set(node, "value_ptr", self._get(succ, "value_ptr"))
            self._set(node, "value_len", self._get(succ, "value_len"))
            victim = succ
        else:
            orphaned_buf = self._get(node, "value_ptr")
            victim = node

        # The victim has at most one child: splice it out.
        child = self._get(victim, "left")
        if child == NULL:
            child = self._get(victim, "right")
        if not path:
            rt.write_field(HEADER, self.header, "root", child)
        else:
            parent = path[-1]
            side = "left" if self._get(parent, "left") == victim else "right"
            self._set(parent, side, child)

        # Rebalance the whole path bottom-up.
        for i in range(len(path) - 1, -1, -1):
            ancestor = path[i]
            new_sub = self._rebalance(ancestor)
            if new_sub != ancestor:
                if i == 0:
                    rt.write_field(HEADER, self.header, "root", new_sub)
                else:
                    grand = path[i - 1]
                    if self._get(grand, "left") == ancestor:
                        self._set(grand, "left", new_sub)
                    else:
                        self._set(grand, "right", new_sub)

        # Poison and free the spliced-out node (lazy-but-logged: a
        # rollback resurrects it) and the orphaned value buffer.
        self._set(victim, "key", 0xDEAD, Hint.TOMBSTONE)
        self._set(victim, "value_ptr", NULL, Hint.TOMBSTONE)
        rt.free(victim)
        if orphaned_buf != NULL:
            rt.free(orphaned_buf)
        return True

    # ------------------------------------------------------------------
    # validation
    # ------------------------------------------------------------------

    def check_integrity(self, read: MemReader) -> None:
        root = read(HEADER.addr(self.header, "root"))
        seen: Set[int] = set()
        self._check_subtree(read, root, None, None, seen)

    def _check_subtree(
        self,
        read: MemReader,
        node: int,
        lo: Optional[int],
        hi: Optional[int],
        seen: Set[int],
    ) -> int:
        if node == NULL:
            return 0
        if node in seen:
            raise RecoveryError("avl: node reachable twice (cycle)")
        seen.add(node)
        key = read(NODE.addr(node, "key"))
        if (lo is not None and key <= lo) or (hi is not None and key >= hi):
            raise RecoveryError(f"avl: BST violation at key {key}")
        hl = self._check_subtree(read, read(NODE.addr(node, "left")), lo, key, seen)
        hr = self._check_subtree(read, read(NODE.addr(node, "right")), key, hi, seen)
        if abs(hl - hr) > 1:
            raise RecoveryError(f"avl: imbalance at key {key} ({hl} vs {hr})")
        h = 1 + max(hl, hr)
        if read(NODE.addr(node, "height")) != h:
            raise RecoveryError(f"avl: stale height at key {key}")
        return h

    # ------------------------------------------------------------------
    # recovery (Pattern 2): recompute heights bottom-up
    # ------------------------------------------------------------------

    def rebuild_lazy(self, view: PmView) -> None:
        root = view.read(HEADER.addr(self.header, "root"))
        if root == NULL:
            return
        order: List[int] = []
        stack = [root]
        while stack:
            node = stack.pop()
            order.append(node)
            for field in ("left", "right"):
                child = view.read(NODE.addr(node, field))
                if child != NULL:
                    stack.append(child)
        heights = {NULL: 0}
        for node in reversed(order):
            left = view.read(NODE.addr(node, "left"))
            right = view.read(NODE.addr(node, "right"))
            h = 1 + max(heights[left], heights[right])
            heights[node] = h
            view.write(NODE.addr(node, "height"), h)

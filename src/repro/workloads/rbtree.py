"""Durable red-black tree (Table II: parent pointer + color per node).

Annotation sites:

* fields of freshly allocated nodes and value buffers —
  :data:`Hint.NEW_ALLOC` (log-free, Pattern 1);
* **parent pointers** of existing nodes (rewritten during rotations and
  attachment) — :data:`Hint.RECOVERABLE`: a parent pointer is fully
  determined by the child pointers, so recovery rebuilds them top-down
  (this is the lazily persistent pointer the paper's compiler finds);
* **colors** — :data:`Hint.SEMANTIC`: a valid recoloring can be
  recomputed for the committed shape, but only with red-black domain
  knowledge, so only manual annotation marks it (the compiler misses it,
  Section VI-D4); recovery recolors with a feasibility DP;
* child pointers of existing nodes and the root pointer — plain logged
  stores: the committed shape is exactly what recovery trusts.
"""

from __future__ import annotations

from typing import Dict, List, Optional, Set, Tuple

from repro.alloc.objects import NULL, layout
from repro.common.errors import RecoveryError
from repro.recovery.engine import PmView
from repro.runtime.hints import Hint
from repro.workloads.base import MemReader
from repro.workloads.bst import BinarySearchTree

HEADER = layout("rb_header", ["root"])
NODE = layout(
    "rb_node", ["key", "value_ptr", "value_len", "left", "right", "parent", "color"]
)

RED = 0
BLACK = 1


class RBTree(BinarySearchTree):
    """Red-black tree with classic insert fix-up."""

    name = "rbtree"
    HEADER = HEADER
    NODE = NODE
    fuzz_ops = ("insert", "remove")

    def setup(self) -> None:
        rt = self.rt
        self.header = rt.allocator.alloc(HEADER.size)
        with rt.transaction():
            rt.write_field(HEADER, self.header, "root", NULL)

    # --- simulated field accessors (terser aliases) ------------------------

    def _get(self, node: int, field: str) -> int:
        return self.rt.read_field(NODE, node, field)

    def _set(self, node: int, field: str, value: int, hint: Hint = Hint.NONE) -> None:
        self.rt.write_field(NODE, node, field, value, hint)

    def _root(self) -> int:
        return self.rt.read_field(HEADER, self.header, "root")

    def _set_root(self, node: int) -> None:
        self.rt.write_field(HEADER, self.header, "root", node)

    # ------------------------------------------------------------------
    # insert
    # ------------------------------------------------------------------

    def _insert(self, key: int, value: List[int]) -> None:
        rt = self.rt
        parent = NULL
        cursor = self._root()
        while cursor != NULL:
            parent = cursor
            ckey = self._get(cursor, "key")
            if key == ckey:
                old = self._get(cursor, "value_ptr")
                self._replace_value(NODE.addr(cursor, "value_ptr"), old, value)
                return
            cursor = self._get(cursor, "left" if key < ckey else "right")

        buf = self._write_value_buffer(value)
        node = rt.alloc_struct(NODE)
        self._set(node, "key", key, Hint.NEW_ALLOC)
        self._set(node, "value_ptr", buf, Hint.NEW_ALLOC)
        self._set(node, "value_len", len(value), Hint.NEW_ALLOC)
        self._set(node, "left", NULL, Hint.NEW_ALLOC)
        self._set(node, "right", NULL, Hint.NEW_ALLOC)
        self._set(node, "parent", parent, Hint.NEW_ALLOC)
        self._set(node, "color", RED, Hint.NEW_ALLOC)

        if parent == NULL:
            self._set_root(node)
        elif key < self._get(parent, "key"):
            self._set(parent, "left", node)  # logged: existing node
        else:
            self._set(parent, "right", node)
        self._fixup(node)

    def _fixup(self, node: int) -> None:
        """Classic CLRS insert fix-up with recolours and rotations."""
        while True:
            parent = self._get(node, "parent")
            if parent == NULL or self._get(parent, "color") == BLACK:
                break
            grand = self._get(parent, "parent")
            if grand == NULL:
                break
            if parent == self._get(grand, "left"):
                uncle = self._get(grand, "right")
                if uncle != NULL and self._get(uncle, "color") == RED:
                    self._set(parent, "color", BLACK, Hint.SEMANTIC)
                    self._set(uncle, "color", BLACK, Hint.SEMANTIC)
                    self._set(grand, "color", RED, Hint.SEMANTIC)
                    node = grand
                    continue
                if node == self._get(parent, "right"):
                    node = parent
                    self._rotate_left(node)
                    parent = self._get(node, "parent")
                    grand = self._get(parent, "parent")
                self._set(parent, "color", BLACK, Hint.SEMANTIC)
                self._set(grand, "color", RED, Hint.SEMANTIC)
                self._rotate_right(grand)
            else:
                uncle = self._get(grand, "left")
                if uncle != NULL and self._get(uncle, "color") == RED:
                    self._set(parent, "color", BLACK, Hint.SEMANTIC)
                    self._set(uncle, "color", BLACK, Hint.SEMANTIC)
                    self._set(grand, "color", RED, Hint.SEMANTIC)
                    node = grand
                    continue
                if node == self._get(parent, "left"):
                    node = parent
                    self._rotate_right(node)
                    parent = self._get(node, "parent")
                    grand = self._get(parent, "parent")
                self._set(parent, "color", BLACK, Hint.SEMANTIC)
                self._set(grand, "color", RED, Hint.SEMANTIC)
                self._rotate_left(grand)
        root = self._root()
        if self._get(root, "color") != BLACK:
            self._set(root, "color", BLACK, Hint.SEMANTIC)

    def _rotate_left(self, x: int) -> None:
        y = self._get(x, "right")
        yl = self._get(y, "left")
        self._set(x, "right", yl)
        if yl != NULL:
            self._set(yl, "parent", x, Hint.RECOVERABLE)
        xp = self._get(x, "parent")
        self._set(y, "parent", xp, Hint.RECOVERABLE)
        if xp == NULL:
            self._set_root(y)
        elif x == self._get(xp, "left"):
            self._set(xp, "left", y)
        else:
            self._set(xp, "right", y)
        self._set(y, "left", x)
        self._set(x, "parent", y, Hint.RECOVERABLE)

    def _rotate_right(self, x: int) -> None:
        y = self._get(x, "left")
        yr = self._get(y, "right")
        self._set(x, "left", yr)
        if yr != NULL:
            self._set(yr, "parent", x, Hint.RECOVERABLE)
        xp = self._get(x, "parent")
        self._set(y, "parent", xp, Hint.RECOVERABLE)
        if xp == NULL:
            self._set_root(y)
        elif x == self._get(xp, "right"):
            self._set(xp, "right", y)
        else:
            self._set(xp, "left", y)
        self._set(y, "right", x)
        self._set(x, "parent", y, Hint.RECOVERABLE)

    # ------------------------------------------------------------------
    # delete (CLRS RB-DELETE with fix-up)
    # ------------------------------------------------------------------

    def _remove(self, key: int) -> bool:
        rt = self.rt
        z = self._root()
        while z != NULL:
            zkey = self._get(z, "key")
            if key == zkey:
                break
            z = self._get(z, "left" if key < zkey else "right")
        if z == NULL:
            return False

        y = z
        y_color = self._get(y, "color")
        if self._get(z, "left") == NULL:
            x = self._get(z, "right")
            x_parent = self._get(z, "parent")
            self._transplant(z, x)
        elif self._get(z, "right") == NULL:
            x = self._get(z, "left")
            x_parent = self._get(z, "parent")
            self._transplant(z, x)
        else:
            # Successor: minimum of the right subtree.
            y = self._get(z, "right")
            while self._get(y, "left") != NULL:
                y = self._get(y, "left")
            y_color = self._get(y, "color")
            x = self._get(y, "right")
            if self._get(y, "parent") == z:
                x_parent = y
            else:
                x_parent = self._get(y, "parent")
                self._transplant(y, x)
                zr = self._get(z, "right")
                self._set(y, "right", zr)
                self._set(zr, "parent", y, Hint.RECOVERABLE)
            self._transplant(z, y)
            zl = self._get(z, "left")
            self._set(y, "left", zl)
            self._set(zl, "parent", y, Hint.RECOVERABLE)
            self._set(y, "color", self._get(z, "color"), Hint.SEMANTIC)

        if y_color == BLACK:
            self._delete_fixup(x, x_parent)

        # Poison and free the detached node (Pattern 1 on the freed
        # region; the tombstone is lazy-but-logged so rollback restores).
        buf = self._get(z, "value_ptr")
        self._set(z, "key", 0xDEAD, Hint.TOMBSTONE)
        self._set(z, "value_ptr", NULL, Hint.TOMBSTONE)
        rt.free(z)
        if buf != NULL:
            rt.free(buf)
        return True

    def _transplant(self, u: int, v: int) -> None:
        """Replace the subtree rooted at *u* with the one at *v*."""
        up = self._get(u, "parent")
        if up == NULL:
            self._set_root(v)
        elif u == self._get(up, "left"):
            self._set(up, "left", v)
        else:
            self._set(up, "right", v)
        if v != NULL:
            self._set(v, "parent", up, Hint.RECOVERABLE)

    def _delete_fixup(self, x: int, parent: int) -> None:
        """Restore the red-black invariants after removing a black node.

        *x* is the doubly-black node (possibly NULL) and *parent* its
        parent; NULL children are threaded through *parent* instead of
        sentinel nodes.
        """
        while x != self._root() and (x == NULL or self._get(x, "color") == BLACK):
            if parent == NULL:
                break
            if x == self._get(parent, "left"):
                w = self._get(parent, "right")
                if w != NULL and self._get(w, "color") == RED:
                    self._set(w, "color", BLACK, Hint.SEMANTIC)
                    self._set(parent, "color", RED, Hint.SEMANTIC)
                    self._rotate_left(parent)
                    w = self._get(parent, "right")
                if w == NULL:
                    x, parent = parent, self._get(parent, "parent")
                    continue
                wl, wr = self._get(w, "left"), self._get(w, "right")
                wl_black = wl == NULL or self._get(wl, "color") == BLACK
                wr_black = wr == NULL or self._get(wr, "color") == BLACK
                if wl_black and wr_black:
                    self._set(w, "color", RED, Hint.SEMANTIC)
                    x, parent = parent, self._get(parent, "parent")
                else:
                    if wr_black:
                        if wl != NULL:
                            self._set(wl, "color", BLACK, Hint.SEMANTIC)
                        self._set(w, "color", RED, Hint.SEMANTIC)
                        self._rotate_right(w)
                        w = self._get(parent, "right")
                    self._set(
                        w, "color", self._get(parent, "color"), Hint.SEMANTIC
                    )
                    self._set(parent, "color", BLACK, Hint.SEMANTIC)
                    wr = self._get(w, "right")
                    if wr != NULL:
                        self._set(wr, "color", BLACK, Hint.SEMANTIC)
                    self._rotate_left(parent)
                    x = self._root()
                    parent = NULL
            else:
                w = self._get(parent, "left")
                if w != NULL and self._get(w, "color") == RED:
                    self._set(w, "color", BLACK, Hint.SEMANTIC)
                    self._set(parent, "color", RED, Hint.SEMANTIC)
                    self._rotate_right(parent)
                    w = self._get(parent, "left")
                if w == NULL:
                    x, parent = parent, self._get(parent, "parent")
                    continue
                wl, wr = self._get(w, "left"), self._get(w, "right")
                wl_black = wl == NULL or self._get(wl, "color") == BLACK
                wr_black = wr == NULL or self._get(wr, "color") == BLACK
                if wl_black and wr_black:
                    self._set(w, "color", RED, Hint.SEMANTIC)
                    x, parent = parent, self._get(parent, "parent")
                else:
                    if wl_black:
                        if wr != NULL:
                            self._set(wr, "color", BLACK, Hint.SEMANTIC)
                        self._set(w, "color", RED, Hint.SEMANTIC)
                        self._rotate_left(w)
                        w = self._get(parent, "left")
                    self._set(
                        w, "color", self._get(parent, "color"), Hint.SEMANTIC
                    )
                    self._set(parent, "color", BLACK, Hint.SEMANTIC)
                    wl = self._get(w, "left")
                    if wl != NULL:
                        self._set(wl, "color", BLACK, Hint.SEMANTIC)
                    self._rotate_right(parent)
                    x = self._root()
                    parent = NULL
        if x != NULL:
            self._set(x, "color", BLACK, Hint.SEMANTIC)

    # ------------------------------------------------------------------
    # validation
    # ------------------------------------------------------------------

    def check_integrity(self, read: MemReader) -> None:
        """BST order, parent consistency, and the red-black invariants."""
        root = read(HEADER.addr(self.header, "root"))
        if root == NULL:
            return
        if read(NODE.addr(root, "color")) != BLACK:
            raise RecoveryError("rbtree: root is not black")
        if read(NODE.addr(root, "parent")) != NULL:
            raise RecoveryError("rbtree: root has a parent")
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
        """Return the black height of *node*'s subtree."""
        if node == NULL:
            return 1
        if node in seen:
            raise RecoveryError("rbtree: node reachable twice (cycle)")
        seen.add(node)
        key = read(NODE.addr(node, "key"))
        if (lo is not None and key <= lo) or (hi is not None and key >= hi):
            raise RecoveryError(f"rbtree: BST violation at key {key}")
        color = read(NODE.addr(node, "color"))
        if color not in (RED, BLACK):
            raise RecoveryError(f"rbtree: invalid color {color}")
        left = read(NODE.addr(node, "left"))
        right = read(NODE.addr(node, "right"))
        for child in (left, right):
            if child != NULL and read(NODE.addr(child, "parent")) != node:
                raise RecoveryError("rbtree: inconsistent parent pointer")
            if child != NULL and color == RED and read(NODE.addr(child, "color")) == RED:
                raise RecoveryError("rbtree: red node with red child")
        bh_left = self._check_subtree(read, left, lo, key, seen)
        bh_right = self._check_subtree(read, right, key, hi, seen)
        if bh_left != bh_right:
            raise RecoveryError("rbtree: unequal black heights")
        return bh_left + (1 if color == BLACK else 0)

    # ------------------------------------------------------------------
    # recovery (Pattern 2)
    # ------------------------------------------------------------------

    def rebuild_lazy(self, view: PmView) -> None:
        """Rebuild parent pointers top-down, then recolour the tree.

        The committed *shape* (child pointers, root) is durable because
        those stores are logged; parents and colors are the lazily
        persistent data that a post-commit crash may lose.
        """
        root = view.read(HEADER.addr(self.header, "root"))
        if root == NULL:
            return
        self._rebuild_parents(view, root)
        self._recolor(view, root)

    def _rebuild_parents(self, view: PmView, root: int) -> None:
        view.write(NODE.addr(root, "parent"), NULL)
        stack = [root]
        while stack:
            node = stack.pop()
            for field in ("left", "right"):
                child = view.read(NODE.addr(node, field))
                if child != NULL:
                    view.write(NODE.addr(child, "parent"), node)
                    stack.append(child)

    def _recolor(self, view: PmView, root: int) -> None:
        """Assign a valid red-black colouring to the committed shape.

        Feasibility DP: for each subtree, the set of achievable
        ``(black_height, root_color)`` pairs; a red root requires black
        children with equal black heights, a black root only equal black
        heights.  The shape was produced by red-black inserts, so a
        feasible colouring with a black root always exists.
        """
        feasible: Dict[int, Dict[Tuple[int, int], Tuple]] = {}

        def solve(node: int) -> Dict[Tuple[int, int], Tuple]:
            if node == NULL:
                return {(1, BLACK): ()}
            if node in feasible:
                return feasible[node]
            left = view.read(NODE.addr(node, "left"))
            right = view.read(NODE.addr(node, "right"))
            lsol = solve(left)
            rsol = solve(right)
            options: Dict[Tuple[int, int], Tuple] = {}
            for (lbh, lc) in lsol:
                for (rbh, rc) in rsol:
                    if lbh != rbh:
                        continue
                    if lc == BLACK and rc == BLACK:
                        options.setdefault((lbh, RED), ((lbh, lc), (rbh, rc)))
                    options.setdefault((lbh + 1, BLACK), ((lbh, lc), (rbh, rc)))
            feasible[node] = options
            return options

        # Iterative bottom-up to avoid deep recursion on big trees.
        order: List[int] = []
        stack = [root]
        while stack:
            node = stack.pop()
            order.append(node)
            for field in ("left", "right"):
                child = view.read(NODE.addr(node, field))
                if child != NULL:
                    stack.append(child)
        for node in reversed(order):
            solve(node)

        root_options = feasible[root]
        black_roots = [opt for opt in root_options if opt[1] == BLACK]
        if not black_roots:
            raise RecoveryError("rbtree: no feasible black-root colouring")
        choice = black_roots[0]

        def assign(node: int, opt: Tuple[int, int]) -> None:
            todo = [(node, opt)]
            while todo:
                cur, cur_opt = todo.pop()
                if cur == NULL:
                    continue
                bh, color = cur_opt
                view.write(NODE.addr(cur, "color"), color)
                child_opts = feasible[cur][cur_opt]
                left = view.read(NODE.addr(cur, "left"))
                right = view.read(NODE.addr(cur, "right"))
                if left != NULL:
                    todo.append((left, child_opts[0]))
                if right != NULL:
                    todo.append((right, child_opts[1]))

        assign(root, choice)

"""Read-only walks shared by the binary search trees (red-black, AVL).

Both tree layouts keep their tree under a header's ``root`` and open
every node with ``key``, ``value_ptr``, ``value_len``, ``left`` and
``right``; the lookup, the key traversal and the reachability walk read
only those fields.  :meth:`BinarySearchTree.iter_keys` is also a
service's simulated scan, so its load order is part of the simulated
behaviour.
"""

from __future__ import annotations

from typing import List, Optional, Set, Tuple

from repro.alloc.objects import NULL, StructLayout
from repro.common import units
from repro.common.errors import RecoveryError
from repro.workloads.base import MemReader, Workload


class BinarySearchTree(Workload):
    """A workload whose durable state is one binary search tree; its
    :meth:`setup` allocates the header at :attr:`header`."""

    #: The header layout (with ``root``) and the node layout.
    HEADER: StructLayout
    NODE: StructLayout
    header: int

    def _lookup(self, key: int, read: MemReader) -> Optional[int]:
        node_addr = self.NODE.addr
        node = read(self.HEADER.addr(self.header, "root"))
        limit = self.walk_limit()
        steps = 0
        while node != NULL:
            ckey = read(node_addr(node, "key"))
            if key == ckey:
                return read(node_addr(node, "value_ptr"))
            node = read(node_addr(node, "left" if key < ckey else "right"))
            steps += 1
            if steps > limit:
                raise RecoveryError(f"{self.name}: search path too long (cycle?)")
        return None

    def iter_keys(self, read: MemReader) -> List[int]:
        node_addr = self.NODE.addr
        keys: List[int] = []
        seen: Set[int] = set()
        stack = [read(self.HEADER.addr(self.header, "root"))]
        while stack:
            node = stack.pop()
            if node == NULL:
                continue
            if node in seen:
                raise RecoveryError(f"{self.name}: node reachable twice")
            seen.add(node)
            keys.append(read(node_addr(node, "key")))
            stack.append(read(node_addr(node, "left")))
            stack.append(read(node_addr(node, "right")))
        return keys

    def reachable(self, read: MemReader) -> List[Tuple[int, int]]:
        node_addr = self.NODE.addr
        out: List[Tuple[int, int]] = [(self.header, self.HEADER.size)]
        stack = [read(self.HEADER.addr(self.header, "root"))]
        while stack:
            node = stack.pop()
            if node == NULL:
                continue
            out.append((node, self.NODE.size))
            buf = read(node_addr(node, "value_ptr"))
            vlen = read(node_addr(node, "value_len"))
            if buf != NULL:
                out.append((buf, vlen * units.WORD_BYTES))
            stack.append(read(node_addr(node, "left")))
            stack.append(read(node_addr(node, "right")))
        return out

"""Circular transaction-ID allocation for lazy persistency (Section III-C2).

Each core owns a small pool of transaction IDs (two-bit IDs, so four by
default).  Allocation proceeds strictly *around the circle*: transaction
k gets ID ``k mod N`` regardless of which IDs happen to be free.  When
the next ID on the circle is still active — its transaction committed
but still owns deferred (lazily persistent) cache lines — the hardware
must reclaim it, which is exactly the moment those deferred lines are
persisted.

Strict circular order gives two properties the paper relies on:

* **age order** — the next ID on the circle is always the *oldest* still
  active transaction, so reclaiming it (and everything older, vacuously)
  never leaves an older transaction's data deferred behind a younger one;
* **the empty-transaction idiom** — running ``N`` empty transactions
  cycles the whole circle and therefore forces every deferred line to
  persistent memory (Section III-C4).
"""

from __future__ import annotations

from typing import List, Optional

from repro.common.errors import SimulationError, TransactionError


class TxIdAllocator:
    """Strictly circular allocator of per-core transaction IDs."""

    def __init__(self, num_ids: int) -> None:
        if num_ids < 2:
            raise TransactionError("need at least two transaction IDs")
        self.num_ids = num_ids
        self._next = 0
        #: Active IDs in allocation (= age) order, oldest first.
        self._active: List[int] = []

    # --- queries -----------------------------------------------------------

    @property
    def free_count(self) -> int:
        return self.num_ids - len(self._active)

    @property
    def active_ids(self) -> List[int]:
        """Active IDs ordered oldest first."""
        return list(self._active)

    def oldest_active(self) -> Optional[int]:
        return self._active[0] if self._active else None

    def next_id(self) -> int:
        """The ID the next allocation will try to take."""
        return self._next

    # --- lifecycle -----------------------------------------------------------

    def allocate(self) -> Optional[int]:
        """Take the next ID on the circle, or None when it is still active.

        On None the caller must persist the oldest transaction's deferred
        data, :meth:`release` it, and retry — the blocked ID *is* the
        oldest active one (circular order is age order).
        """
        tx_id = self._next
        if tx_id in self._active:
            return None
        self._active.append(tx_id)
        self._next = (tx_id + 1) % self.num_ids
        return tx_id

    def release(self, tx_id: int) -> None:
        """Mark *tx_id* inactive (its deferred data is durable)."""
        try:
            self._active.remove(tx_id)
        except ValueError:
            raise SimulationError(f"release of inactive tx id {tx_id}") from None

    def ids_through(self, tx_id: int) -> List[int]:
        """Active IDs from the oldest up to and including *tx_id*.

        Persisting one transaction's lazy data must also persist every
        *older* transaction's (Section III-C2), so forced persists always
        walk this prefix.
        """
        if tx_id not in self._active:
            raise SimulationError(f"tx id {tx_id} is not active")
        out: List[int] = []
        for candidate in self._active:
            out.append(candidate)
            if candidate == tx_id:
                break
        return out

    def reset(self) -> None:
        """Forget everything (crash: the register is volatile)."""
        self._next = 0
        self._active = []

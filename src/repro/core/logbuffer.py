"""The four-tier coalescing log buffer (Section III-B2, Figure 6).

The buffer sits next to L1 and absorbs log records created by stores.  In
coalescing mode (FG / SLPMT) an inserted word record is repeatedly merged
with its *buddy* — the adjacent, alignment-compatible record in the same
tier — climbing one tier per merge, exactly like buddy memory allocation.
A tier that is full when a record needs a slot drains entirely (the
machine persists the drained records).

In non-coalescing mode (modelling EDE's lack of a hardware coalescing
buffer) records accumulate in arrival order in a simple FIFO and drain in
batches of the same capacity; no merging happens, so eight words of log
cost eight 16-byte records instead of one 72-byte record.

The buffer itself never touches memory: every method that removes records
returns them, and the machine decides whether they are persisted (tier
drain, cache-line eviction, commit) or discarded (lazy lines, aborts).
"""

from __future__ import annotations

from typing import Dict, List

from repro.common.config import LogBufferConfig
from repro.common.errors import SimulationError
from repro.core import records as rec
from repro.core.records import LogRecord


class TieredLogBuffer:
    """On-core log record staging buffer."""

    def __init__(self, config: LogBufferConfig, *, coalescing: bool = True) -> None:
        self.config = config
        self.coalescing = coalescing
        #: tier index -> {record base addr -> record}
        self._tiers: List[Dict[int, LogRecord]] = [
            {} for _ in range(config.num_tiers)
        ]
        # Records are aligned to their own span, so a record of tier t is
        # covered by a buffered one iff its base, aligned down to some
        # tier u >= t, keys a record of tier u.  Per t, the (tier dict,
        # mask) pairs _covered looks up (the dicts are never rebound).
        masks = [~(rec.tier_span_bytes(t) - 1) for t in range(config.num_tiers)]
        self._covering = [
            list(zip(self._tiers[t:], masks[t:])) for t in range(config.num_tiers)
        ]
        #: FIFO used in non-coalescing mode.
        self._fifo: List[LogRecord] = []
        self.coalesce_count = 0
        self.drain_count = 0

    # --- capacity ---------------------------------------------------------

    def record_count(self) -> int:
        if not self.coalescing:
            return len(self._fifo)
        return sum(len(t) for t in self._tiers)

    def is_empty(self) -> bool:
        return self.record_count() == 0

    # --- insertion -------------------------------------------------------

    def insert(self, record: LogRecord) -> List[LogRecord]:
        """Add *record*; return any records drained to make room.

        Drained records must be persisted by the caller (they left the
        buffer because of capacity, not because they became unnecessary).
        """
        if not self.coalescing:
            return self._insert_fifo(record)
        return self._insert_coalescing(record)

    def _insert_fifo(self, record: LogRecord) -> List[LogRecord]:
        drained: List[LogRecord] = []
        if len(self._fifo) >= self.config.records_per_tier:
            drained = self._fifo
            self._fifo = []
            self.drain_count += 1
        self._fifo.append(record)
        return drained

    def _insert_coalescing(self, record: LogRecord) -> List[LogRecord]:
        drained: List[LogRecord] = []
        if self._covered(record.addr, record.tier):
            # A word logged twice (possible after the L2 granularity
            # round-trip described in Section III-B1) carries a *newer*
            # old value, captured after the transaction's first store.
            # Undo logging must preserve the first pre-image, so the
            # duplicate is dropped while any tier still buffers a record
            # that covers it, merged or not.
            return drained
        top_tier = self.config.num_tiers - 1
        while record.tier < top_tier:
            tier = self._tiers[record.tier]
            # Inline of record.buddy_addr(): the partner record's base.
            buddy = tier.get(record.addr ^ record.span_bytes)
            if buddy is None:
                break
            del tier[buddy.addr]
            record = rec.merge(record, buddy)
            self.coalesce_count += 1
        tier = self._tiers[record.tier]
        if len(tier) >= self.config.records_per_tier:
            drained = list(tier.values())
            tier.clear()
            self.drain_count += 1
        tier[record.addr] = record
        return drained

    # --- targeted extraction ------------------------------------------------

    def extract_for_line(self, line_addr: int) -> List[LogRecord]:
        """Remove and return every record whose span lies in *line_addr*.

        Used when the associated cache line is evicted toward L3 and the
        records must be persisted first.
        """
        out: List[LogRecord] = []
        if not self.coalescing:
            kept = []
            for record in self._fifo:
                (out if record.line_addr == line_addr else kept).append(record)
            self._fifo = kept
            return out
        for tier in self._tiers:
            hits = [a for a, r in tier.items() if r.line_addr == line_addr]
            for addr in hits:
                out.append(tier.pop(addr))
        return out

    def covers_word(self, word_address: int) -> bool:
        """True when some buffered record already covers *word_address*."""
        if not self.coalescing:
            return any(r.covers(word_address) for r in self._fifo)
        return self._covered(word_address, 0)

    def _covered(self, addr: int, tier: int) -> bool:
        """True when a record of *tier* or above covers *addr*."""
        for records, mask in self._covering[tier]:
            if (addr & mask) in records:
                return True
        return False

    # --- bulk operations -----------------------------------------------------

    def drain_all(self) -> List[LogRecord]:
        """Remove and return every buffered record (transaction commit)."""
        out: List[LogRecord] = []
        if not self.coalescing:
            out, self._fifo = self._fifo, []
        else:
            for tier in self._tiers:
                out.extend(tier.values())
                tier.clear()
        if out:
            self.drain_count += 1
        return out

    def clear(self) -> int:
        """Discard everything (abort / crash); return the discarded count."""
        n = self.record_count()
        self._fifo = []
        for tier in self._tiers:
            tier.clear()
        return n

    # --- introspection --------------------------------------------------------

    def tier_occupancy(self) -> List[int]:
        if not self.coalescing:
            return [len(self._fifo)]
        return [len(t) for t in self._tiers]

    def validate(self) -> None:
        """Check internal invariants (records live in their own tier and
        within capacity); raises :class:`SimulationError` on violation."""
        for i, tier in enumerate(self._tiers):
            if len(tier) > self.config.records_per_tier:
                raise SimulationError(f"tier {i} over capacity")
            for addr, record in tier.items():
                if record.tier != i:
                    raise SimulationError(
                        f"record of tier {record.tier} stored in tier {i}"
                    )
                if record.addr != addr:
                    raise SimulationError("record keyed under wrong address")

"""Cache-line state, including the SLPMT metadata fields of Figure 5.

Each L1 line carries eight per-word log bits; each L2 line carries two
log bits (one per 32-byte half); L3 lines carry none.  All transactional
levels also carry a persist bit and a two-bit transaction ID, and every
level tracks a MESI coherence state plus a dirty flag.

Word values are stored per line in a fixed-length list indexed by word
number, filled from the backing memory on fetch, so that undo records can
capture pre-store values without a second memory access.

Perf note: the line is a ``__slots__`` class and the log bits live in a
single int bitmask (``log_mask``, bit *i* = word/group *i* logged) with a
recorded ``log_width`` — the hardware layout, and allocation-free on the
store path.  The ``log_bits`` property presents the historical
list-of-bool view for tests and tools; hot code uses the mask directly
via the precomputed :data:`AGGREGATE_MASK` / :data:`REPLICATE_MASK`
tables below.
"""

from __future__ import annotations

import enum
from typing import List, Optional

from repro.common import units
from repro.common.errors import SimulationError


class Mesi(enum.IntEnum):
    """MESI coherence states (Table III: MESI protocol).

    Interned small ints: members compare by identity on the hot path and
    hash at C speed (``object.__hash__``), unlike the default Enum hash.
    """

    MODIFIED = 0
    EXCLUSIVE = 1
    SHARED = 2
    INVALID = 3

    __hash__ = object.__hash__


#: Figure-5 aggregation, precomputed: ``AGGREGATE_MASK[l1_mask]`` is the
#: 2-bit L2 mask whose bit *g* is set iff *all four* L1 bits of group *g*
#: are set (logical conjunction per Section III-B1).
AGGREGATE_MASK = tuple(
    sum(
        1 << g
        for g in range(units.L2_LOG_BITS)
        if (m >> (g * units.L1_BITS_PER_L2_BIT)) & _GROUP == _GROUP
    )
    for _GROUP in ((1 << units.L1_BITS_PER_L2_BIT) - 1,)
    for m in range(1 << units.WORDS_PER_LINE)
)

#: Figure-5 replication, precomputed: ``REPLICATE_MASK[l2_mask]`` expands
#: each L2 bit into its four covered L1 bits.
REPLICATE_MASK = tuple(
    sum(
        ((1 << units.L1_BITS_PER_L2_BIT) - 1) << (g * units.L1_BITS_PER_L2_BIT)
        for g in range(units.L2_LOG_BITS)
        if m & (1 << g)
    )
    for m in range(1 << units.L2_LOG_BITS)
)

#: Popcount per possible L1 mask value (``int.bit_count`` needs 3.10+).
POPCOUNT = tuple(bin(m).count("1") for m in range(1 << units.WORDS_PER_LINE))


class CacheLine:
    """One resident cache line with SLPMT metadata.

    ``log_width`` depends on the level: 8 in L1 (per word), 2 in L2 (per
    32-byte group), 0 in L3.  ``tx_id`` is ``None`` when the line was not
    written inside a transaction tracked for lazy persistency.
    """

    __slots__ = (
        "addr",
        "words",
        "state",
        "dirty",
        "persist",
        "log_mask",
        "log_width",
        "tx_id",
    )

    def __init__(
        self,
        addr: int,
        words: List[int],
        state: Mesi = Mesi.EXCLUSIVE,
        dirty: bool = False,
        persist: bool = False,
        log_bits: Optional[List[bool]] = None,
        tx_id: Optional[int] = None,
    ) -> None:
        if addr % units.LINE_BYTES != 0:
            raise SimulationError(f"line address {addr:#x} not aligned")
        if len(words) != units.WORDS_PER_LINE:
            raise SimulationError(
                f"line must hold {units.WORDS_PER_LINE} words, got {len(words)}"
            )
        self.addr = addr
        self.words = words
        self.state = state
        self.dirty = dirty
        self.persist = persist
        self.tx_id = tx_id
        if log_bits is None:
            self.log_mask = 0
            self.log_width = 0
        else:
            self.log_width = len(log_bits)
            mask = 0
            for i, bit in enumerate(log_bits):
                if bit:
                    mask |= 1 << i
            self.log_mask = mask

    def __repr__(self) -> str:
        return (
            f"CacheLine(addr={self.addr:#x}, state={self.state.name}, "
            f"dirty={self.dirty}, persist={self.persist}, "
            f"log_mask={self.log_mask:#x}/{self.log_width}, tx_id={self.tx_id})"
        )

    # --- log-bit views ----------------------------------------------------

    @property
    def log_bits(self) -> List[bool]:
        """List-of-bool view of the log bitmask (LSB = word/group 0)."""
        mask = self.log_mask
        return [bool(mask & (1 << i)) for i in range(self.log_width)]

    @log_bits.setter
    def log_bits(self, bits: List[bool]) -> None:
        self.log_width = len(bits)
        mask = 0
        for i, bit in enumerate(bits):
            if bit:
                mask |= 1 << i
        self.log_mask = mask

    # --- word access ----------------------------------------------------

    def read_word(self, index: int) -> int:
        return self.words[index]

    def write_word(self, index: int, value: int) -> None:
        self.words[index] = value
        self.dirty = True
        self.state = Mesi.MODIFIED

    # --- SLPMT metadata ---------------------------------------------------

    def any_log_bit(self) -> bool:
        return self.log_mask != 0

    def is_lazy(self) -> bool:
        """A committed-lazy line: dirty, not scheduled for eager persist,
        and tagged with the transaction that produced it."""
        return self.dirty and not self.persist and self.tx_id is not None


def new_l1_line(addr: int, words: List[int]) -> CacheLine:
    """Create an L1 line with eight per-word log bits (Figure 5, top)."""
    line = CacheLine(addr=addr, words=words)
    line.log_width = units.WORDS_PER_LINE
    return line


def new_l2_line(addr: int, words: List[int]) -> CacheLine:
    """Create an L2 line with two per-32-byte log bits (Figure 5, bottom)."""
    line = CacheLine(addr=addr, words=words)
    line.log_width = units.L2_LOG_BITS
    return line


def new_l3_line(addr: int, words: List[int]) -> CacheLine:
    """Create an L3 line without SLPMT metadata."""
    return CacheLine(addr=addr, words=words)


def aggregate_log_bits_l1_to_l2(l1_bits: List[bool]) -> List[bool]:
    """Fold eight L1 log bits into two L2 bits by logical conjunction.

    Per Section III-B1, one L2 bit covers four words; it is set only when
    *all four* corresponding L1 bits are set, so a later fetch never skips
    a log record that was not actually created (at the price of possible
    duplicate logging, which the speculative-logging optimisation reduces).
    """
    if len(l1_bits) != units.WORDS_PER_LINE:
        raise SimulationError(f"expected {units.WORDS_PER_LINE} L1 log bits")
    group = units.L1_BITS_PER_L2_BIT
    return [all(l1_bits[i * group : (i + 1) * group]) for i in range(units.L2_LOG_BITS)]


def replicate_log_bits_l2_to_l1(l2_bits: List[bool]) -> List[bool]:
    """Expand two L2 log bits back into eight L1 bits (Section III-B1)."""
    if len(l2_bits) != units.L2_LOG_BITS:
        raise SimulationError(f"expected {units.L2_LOG_BITS} L2 log bits")
    out: List[bool] = []
    for bit in l2_bits:
        out.extend([bit] * units.L1_BITS_PER_L2_BIT)
    return out

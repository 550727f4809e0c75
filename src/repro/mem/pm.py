"""Persistent-memory backing store and the durable log region.

The backing store keeps two word stores and routes every accessor by
address; untouched memory reads as zero.  Heap words sit in a dict
keyed by word address.  The log region [``PM_LOG_BASE``,
``PM_LOG_BASE + PM_LOG_BYTES``) is one dense ``array('Q')``: word *i*
lives at ``PM_LOG_BASE + 8*i`` and the array ends one past the highest
word ever written there.  The serialized stream is append-only and
contiguous from ``PM_LOG_BASE``, so the array costs 8 bytes a word, its
length bounds every parse and a reset truncates it.  Because
durability is granted at WPQ insertion (ADR), callers apply writes here
the moment the WPQ accepts them — the store therefore always holds
exactly the post-crash contents of the media plus the drained queue.

The durable log is its words: each append is *serialized* with the
codec in :mod:`repro.mem.logregion` (versioned header, per-entry CRC)
into the dense array, and its start offset is appended to a second
``array('Q')``, the start index (its *position* is its index there).
A per-``tx_seq`` index of live positions is pruned on commit (and when
a shard forgets a global transaction) in O(that transaction).  No entry
object is stored: every record costs its serialized words plus 8
bytes, and :meth:`PersistentMemory.extent`, :attr:`~PersistentMemory.log`
(the live entries) and :meth:`~PersistentMemory.log_entries_for` decode
from those words on demand.  Byte/line accounting for the log's
*traffic* is done by the log buffer and machine, which know the packed
record sizes.

Media faults are injected *through this class*: a
:class:`repro.faults.model.FaultModel` attached to :attr:`fault_model`
can tear the in-flight append at a word boundary, flip bits in
serialized entries, or (via the write journal armed with
:meth:`arm_journal`) revert the last N durability groups, modelling WPQ
drains that never reached media.  The live index describes the media
only as the appends left it, so every injection invalidates it until
the next :meth:`~PersistentMemory.log_reset`, and
:meth:`~PersistentMemory.parsed_log` (what recovery replays) then parses
the whole region; the entries the index selects still decode from the
words as they now read.  The damage ledger (:attr:`log_damage`)
records what each injection did, as ground truth for the campaigns'
detection check.
"""

from __future__ import annotations

from array import array
from dataclasses import dataclass, field
from typing import Dict, List, Optional, Tuple

from repro.common import units
from repro.common.errors import SimulationError
from repro.mem import layout, logregion
from repro.mem.logregion import DurableLogEntry

_PM_BASE = layout.PM_BASE
_WORD_MASK = ~(units.WORD_BYTES - 1)
_WORD_SHIFT = units.WORD_BYTES.bit_length() - 1
#: The log region opens the PM region (``PM_LOG_BASE == PM_BASE``), so
#: a persistent address below ``_LOG_END`` is a log word.
_LOG_BASE = layout.PM_LOG_BASE
_LOG_END = layout.PM_LOG_BASE + layout.PM_LOG_BYTES
_WORD_LIMIT = 1 << 64


@dataclass
class LogExtent:
    """One placed append as :meth:`PersistentMemory.extent` decodes it:
    its start address, its wire length and its entry."""

    __slots__ = ("start", "nwords", "entry")

    start: int
    nwords: int
    entry: DurableLogEntry


@dataclass
class _JournalGroup:
    """Durable writes between two durability events (one WPQ insert)."""

    cursor0: int
    #: Log-array length when the group opened: a revert truncates to
    #: it, which undoes every write that extended the array.
    log_len0: int
    #: ``(word address, prior value)`` per write, in order.  A heap
    #: word's prior is None when it was absent; a log word's prior is
    #: 0 past the array's end (the truncation removes it).
    writes: List[Tuple[int, Optional[int]]] = field(default_factory=list)


@dataclass
class PersistentMemory:
    """Durable word stores (heap dict, dense log array) + the log
    region's start index and live index.

    Entries are *serialized* into the PM log region at
    :data:`~repro.mem.layout.PM_LOG_BASE` (append-only, markers make
    stale records inert), so recovery can run from raw bytes — see
    :mod:`repro.mem.logregion`.  Those words are the only copy of an
    entry: :meth:`extent` decodes any placed append, and :attr:`log`
    and :meth:`log_entries_for` decode the positions the live index
    selects.  The index is a cache of pristine media: an injected fault
    clears :attr:`_indexed`, and :meth:`parsed_log` parses the whole
    region from then on.
    """

    #: Heap words, by word address (never a log-region address).
    _words: Dict[int, int] = field(default_factory=dict)
    #: The log region's words, dense from :data:`PM_LOG_BASE`.
    _log_words: "array[int]" = field(default_factory=lambda: array("Q"))
    _log_cursor: int = layout.PM_LOG_BASE
    #: Start offset of every placed append, in append order: an
    #: append's *position* is its index here.
    _starts: "array[int]" = field(default_factory=lambda: array("Q"))
    #: Live index: tx_seq -> ascending positions.
    _live: Dict[int, List[int]] = field(default_factory=dict)
    #: Ledger of injected media damage (torn and flipped entries): the
    #: ground truth a campaign holds the byte parse's detection to.
    log_damage: List["object"] = field(default_factory=list)
    #: Optional media fault injector (:mod:`repro.faults.model`).
    fault_model: Optional["object"] = None
    #: Total :meth:`log_append` calls, the fault model's append clock.
    log_appends: int = 0
    #: Write journal for drop-drain faults; None when disarmed.
    _journal: Optional[List[_JournalGroup]] = None
    #: True while the media holds only what the appends wrote, so the
    #: live index reads as the bytes would; an injection clears it.
    _indexed: bool = True

    # --- data region ------------------------------------------------------

    def read_word(self, addr: int) -> int:
        # Every durable traversal of a crash judge reads through here:
        # the region tests and word alignment are inlined.
        if addr < _PM_BASE:
            raise SimulationError(f"PM read of volatile address {addr:#x}")
        if addr >= _LOG_END:
            return self._words.get(addr & _WORD_MASK, 0)
        index = (addr - _LOG_BASE) >> _WORD_SHIFT
        log = self._log_words
        return log[index] if index < len(log) else 0

    def write_word(self, addr: int, value: int) -> None:
        if not layout.is_persistent(addr):
            raise SimulationError(f"PM write of volatile address {addr:#x}")
        self._raw_store(units.word_addr(addr), value)

    def read_line(self, line_addr: int) -> List[int]:
        base = units.line_addr(line_addr)
        if _LOG_BASE <= base < _LOG_END:
            index = (base - _LOG_BASE) >> _WORD_SHIFT
            words = self._log_words[index : index + units.WORDS_PER_LINE].tolist()
            return words + [0] * (units.WORDS_PER_LINE - len(words))
        return [
            self._words.get(base + i * units.WORD_BYTES, 0)
            for i in range(units.WORDS_PER_LINE)
        ]

    def write_line(self, line_addr: int, words: List[int]) -> None:
        base = units.line_addr(line_addr)
        if len(words) != units.WORDS_PER_LINE:
            raise SimulationError("write_line expects a full line of words")
        if self._journal is None and base >= _LOG_END:
            store = self._words
            for i, value in enumerate(words):
                store[base + i * units.WORD_BYTES] = value
            return
        for i, value in enumerate(words):
            self._raw_store(base + i * units.WORD_BYTES, value)

    def _raw_store(self, word_addr: int, value: int) -> None:
        """Apply one durable word write, journaling the prior value."""
        if _LOG_BASE <= word_addr < _LOG_END:
            self._log_store(word_addr, value)
            return
        if self._journal is not None:
            self._journal[-1].writes.append(
                (word_addr, self._words.get(word_addr))
            )
        self._words[word_addr] = value

    def _log_store(self, word_addr: int, value: int) -> None:
        """Store one log-region word, zero-padding any gap past the end."""
        if not 0 <= value < _WORD_LIMIT:
            raise SimulationError(
                f"log word {value:#x} at {word_addr:#x} does not fit 64 bits"
            )
        log = self._log_words
        index = (word_addr - _LOG_BASE) >> _WORD_SHIFT
        size = len(log)
        if self._journal is not None:
            self._journal[-1].writes.append(
                (word_addr, log[index] if index < size else 0)
            )
        if index < size:
            log[index] = value
            return
        if index > size:
            log.frombytes(bytes((index - size) * units.WORD_BYTES))
        log.append(value)

    # --- log region -----------------------------------------------------

    @property
    def log(self) -> List[DurableLogEntry]:
        """The live entries in append order, decoded from the words."""
        positions = sorted(p for ps in self._live.values() for p in ps)
        return [self.extent(p).entry for p in positions]

    def log_append(self, entry: DurableLogEntry) -> None:
        index = self.log_appends
        self.log_appends = index + 1
        if self.fault_model is not None and self.fault_model.on_append(
            self, entry, index
        ):
            return
        self.append_clean(entry)

    def append_clean(self, entry: DurableLogEntry) -> int:
        """The undamaged append path: serialize, then index live.
        Returns the append's position (see :meth:`extent`)."""
        words = logregion.encode_entry(entry)
        start = self._next_entry_start()
        end = start + len(words) * units.WORD_BYTES
        if end > _LOG_END:
            raise SimulationError("PM log region exhausted")
        log = self._log_words
        if self._journal is None and start == _LOG_BASE + len(log) * units.WORD_BYTES:
            log.extend(words)
        else:
            for i, word in enumerate(words):
                self._raw_store(start + i * units.WORD_BYTES, word)
        self._log_cursor = end
        starts = self._starts
        position = len(starts)
        starts.append(start)
        positions = self._live.get(entry.tx_seq)
        if positions is None:
            self._live[entry.tx_seq] = [position]
        else:
            positions.append(position)
        return position

    def extent(self, position: int) -> LogExtent:
        """The placed append at *position* (``0 <= position <`` placed
        appends since the last reset), decoded from the words at its
        start: kind, tx_seq and nwords come from its header word and the
        checksum is not verified, so words an injection damaged decode
        as they now read, and words a revert or a tear left zero raise
        :class:`~repro.common.errors.LogParseError`."""
        if not 0 <= position < len(self._starts):
            raise IndexError(f"no placed log append at position {position}")
        start = self._starts[position]
        nwords, entry = logregion.decode_extent(
            self._log_words, (start - _LOG_BASE) >> _WORD_SHIFT
        )
        return LogExtent(start, nwords, entry)

    def _next_entry_start(self) -> int:
        """Cursor for the next entry, writing the v1 stream header first
        if this is the very first append into a pristine region."""
        if self._log_cursor == layout.PM_LOG_BASE:
            for i, word in enumerate(logregion.stream_header_words()):
                self._raw_store(layout.PM_LOG_BASE + i * units.WORD_BYTES, word)
            self._log_cursor = (
                layout.PM_LOG_BASE + logregion.HEADER_WORDS * units.WORD_BYTES
            )
        return self._log_cursor

    def parse_byte_log_tolerant(self) -> "logregion.ParsedLog":
        """Tolerant parse of the serialized region (what a controller
        sees post-crash): never raises, classifies torn/corrupt entries
        (see :func:`repro.mem.logregion.decode_region`).  Includes
        entries the live index already pruned; markers keep them
        inert."""
        return logregion.decode_region(self._log_words)

    def parsed_log(self) -> "logregion.ParsedLog":
        """The log recovery replays: the live entries while the media is
        pristine (the two recover alike), else
        :meth:`parse_byte_log_tolerant`, the only correct reading of
        injected media."""
        if not self._indexed:
            return self.parse_byte_log_tolerant()
        return logregion.ParsedLog(entries=self.log)

    def log_reset(self) -> None:
        """Erase the whole log region (starts, index, words, damage): the
        media is pristine again.

        Recovery calls this once replay and application hooks succeeded:
        afterwards a second recovery is a no-op, which is what makes
        ``recover(); recover()`` ≡ ``recover()``.
        """
        del self._log_words[:]
        del self._starts[:]
        self._live.clear()
        self.log_damage.clear()
        self._log_cursor = layout.PM_LOG_BASE
        self._indexed = True
        if self._journal is not None:
            self._journal = [self._open_group()]

    def log_discard_tx(self, tx_seq: int) -> None:
        """Reclaim the (now useless) records of a resolved transaction
        in O(its records): a committed local transaction, or a global
        one its node has forgotten (:mod:`repro.shard.twopc`).  Their
        serialized words remain."""
        self._live.pop(tx_seq, None)

    def has_live_records(self, tx_seq: int) -> bool:
        """Whether the live index holds any record of *tx_seq*."""
        return tx_seq in self._live

    def log_entries_for(self, tx_seq: int) -> List[DurableLogEntry]:
        """*tx_seq*'s live entries in append order, decoded from the
        words."""
        return [self.extent(p).entry for p in self._live.get(tx_seq, ())]

    @staticmethod
    def resolved_tx_seqs(entries: List[DurableLogEntry]) -> "set[int]":
        """Transactions whose records are inert: committed or already
        rolled back by an in-place abort (both leave markers)."""
        return {e.tx_seq for e in entries if e.kind in ("commit", "abort")}

    # --- media fault injection (each one invalidates the live index) ----

    def serialize_partial(self, entry: DurableLogEntry, cut_words: int) -> int:
        """Apply a torn append: only the first *cut_words* wire words of
        *entry* reach the media (8-byte-atomic controller, power cut
        mid-append).  No position is placed and the damage ledger records
        a partial tear.  Any cut, 0 and the full length included,
        leaves media the live index does not describe.  Returns the
        header offset."""
        words = logregion.encode_entry(entry)
        if not 0 <= cut_words <= len(words):
            raise SimulationError(
                f"tear cut {cut_words} outside the entry's {len(words)} words"
            )
        start = self._next_entry_start()
        for i in range(cut_words):
            self._raw_store(start + i * units.WORD_BYTES, words[i])
        self._log_cursor = start + cut_words * units.WORD_BYTES
        self._indexed = False
        if 0 < cut_words < len(words):
            self.log_damage.append(
                logregion.DamagedEntry(
                    offset=start, reason="torn", kind=entry.kind,
                    tx_seq=entry.tx_seq,
                )
            )
        return start

    def flip_serialized_bit(self, append_index: int, word: int, bit: int) -> int:
        """Flip one bit of the serialized entry placed at position
        *append_index* (see :meth:`extent`) and record it in the damage
        ledger.  Returns the flipped word's PM address."""
        extent = self.extent(append_index)
        if not 0 <= word < extent.nwords:
            raise SimulationError(
                f"flip word {word} outside extent of {extent.nwords} words"
            )
        addr = extent.start + word * units.WORD_BYTES
        self._raw_store(addr, self.read_word(addr) ^ (1 << bit))
        self._indexed = False
        self.log_damage.append(
            logregion.DamagedEntry(
                offset=extent.start,
                reason="checksum",
                kind=extent.entry.kind,
                tx_seq=extent.entry.tx_seq,
            )
        )
        return addr

    # --- write journal (drop-drain faults) -------------------------------

    def arm_journal(self) -> None:
        """Start journaling durable writes, grouped by durability event,
        so a suffix of WPQ drains can later be reverted."""
        self._journal = [self._open_group()]

    def _open_group(self) -> _JournalGroup:
        return _JournalGroup(self._log_cursor, len(self._log_words))

    def note_durability_event(self) -> None:
        """Close the current journal group (one WPQ insertion happened)."""
        if self._journal is not None and self._journal[-1].writes:
            self._journal.append(self._open_group())

    def journal_groups(self) -> int:
        """Non-empty durability groups currently journaled."""
        if self._journal is None:
            return 0
        return sum(1 for g in self._journal if g.writes)

    def drop_last_drains(self, count: int) -> int:
        """Revert the last *count* durability groups: those WPQ drains
        never reached media (an ADR/battery failure).  The word stores
        and the cursor rewind; the start index and the live index keep
        the reverted appends, so a revert invalidates the index.
        Returns how many groups were actually reverted."""
        if self._journal is None:
            raise SimulationError("journal not armed; call arm_journal() first")
        dropped = 0
        while dropped < count and self._journal:
            group = self._journal.pop()
            if not group.writes:
                continue
            words, log = self._words, self._log_words
            for addr, prior in reversed(group.writes):
                if _LOG_BASE <= addr < _LOG_END:
                    log[(addr - _LOG_BASE) >> _WORD_SHIFT] = prior
                elif prior is None:
                    words.pop(addr, None)
                else:
                    words[addr] = prior
            del log[group.log_len0 :]
            self._log_cursor = group.cursor0
            self._indexed = False
            dropped += 1
        if not self._journal:
            self._journal = [self._open_group()]
        return dropped

    # --- introspection -------------------------------------------------

    def snapshot(self) -> "PersistentMemory":
        """Deep copy of the durable image: both word stores and the start
        index (one array copy each), the live index with whether it is
        valid, the damage ledger, the append clock and, when armed, the
        write journal.  The log is words, so the copy costs O(live)
        objects however long the log is.  The fault model is not
        carried over."""
        journal = self._journal
        if journal is not None:
            journal = [
                _JournalGroup(g.cursor0, g.log_len0, list(g.writes)) for g in journal
            ]
        return PersistentMemory(
            _words=dict(self._words),
            _log_words=self._log_words[:],
            _log_cursor=self._log_cursor,
            _starts=self._starts[:],
            _live={t: list(ps) for t, ps in self._live.items()},
            log_damage=list(self.log_damage),
            log_appends=self.log_appends,
            _journal=journal,
            _indexed=self._indexed,
        )

    def load(self, other: "PersistentMemory") -> None:
        """Become a :meth:`snapshot` of *other* in place, so every
        machine holding this object sees the copied image."""
        vars(self).update(vars(other.snapshot()))

    def words_equal(self, other: "PersistentMemory", addrs: "List[int]") -> bool:
        return all(self.read_word(a) == other.read_word(a) for a in addrs)

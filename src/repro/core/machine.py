"""The SLPMT machine: a cycle-approximate core with the paper's hardware.

One :class:`Machine` models a single core with a private L1/L2, a shared
L3 slice, the four-tier log buffer, the signature file, the circular
transaction-ID register, and an ADR persistent memory behind a 512-byte
write-pending queue.  It executes :mod:`repro.isa` instructions and
implements, per the configured :class:`~repro.core.schemes.Scheme`:

* Table-I persist/log-bit semantics of ``store`` and ``storeT``;
* fine-grained (word) or line-granularity undo/redo logging through the
  coalescing log buffer, with L1<->L2 log-bit aggregation/replication and
  the optional speculative-logging optimisation (Section III-B);
* lazy persistency with working-set signatures and transaction-ID
  reclamation (Section III-C);
* the Figure-4 persist ordering at commit, transaction abort (Section
  V-B), and power-failure crash semantics (volatile state vanishes, the
  WPQ drains, the PM backing store and durable log survive).

Contract note (Section IV-A): a log-free store to a word *overwrites the
pre-image the hardware could have logged* — a later logged store to the
same word in the same transaction records the log-free intermediate, so
a rollback restores that intermediate, not the pre-transaction value.
Mixing log-free and logged stores to one word within a transaction is a
programmer annotation error, exactly as the paper describes; the
machine-level property tests pin this boundary.

Caches are modelled as *exclusive* between L1 and L2 so that the metadata
propagation of Figure 5 (bit aggregation on eviction, replication on
fetch) has exactly one home for each line, matching the paper's
description.  Timing is additive: each access pays the latencies of the
levels it traverses; durability events pay WPQ insertion (synchronous at
commit, stall-only for background drains), and the queue drains serially
at the PM write latency, which is what puts write traffic on the commit
critical path.
"""

from __future__ import annotations

import itertools
from collections import OrderedDict
from typing import (
    TYPE_CHECKING,
    Any,
    Callable,
    Dict,
    List,
    Optional,
    Protocol,
    Set,
    Tuple,
)

if TYPE_CHECKING:
    from repro.obs.profiler import CycleProfiler

from repro.common import units
from repro.common.config import DEFAULT_CONFIG, SystemConfig
from repro.common.errors import (
    PowerFailure,
    SimulationError,
    TransactionError,
)
from repro.common.stats import SimStats
from repro.core.logbuffer import TieredLogBuffer
from repro.core.ordering import CommitPhase, LoggingMode, commit_phases
from repro.core.records import LogRecord
from repro.core.schemes import SLPMT, Scheme
from repro.core.signatures import SignatureFile
from repro.core.tracing import Tracer
from repro.core.txid import TxIdAllocator
from repro.isa.instructions import (
    Fence,
    Instruction,
    Load,
    Store,
    StoreT,
    TxAbort,
    TxBegin,
    TxEnd,
    _check_word_operand,
)
from repro.isa.program import Program
from repro.mem import layout, logregion
from repro.mem.cache import SetAssocCache
from repro.mem.cacheline import (
    AGGREGATE_MASK,
    POPCOUNT,
    REPLICATE_MASK,
    CacheLine,
    Mesi,
    new_l1_line,
)
from repro.mem.dram import Dram
from repro.mem.logregion import DurableLogEntry
from repro.mem.pm import PersistentMemory
from repro.mem.wpq import WritePendingQueue

#: Cost in cycles of creating one log record (read old data + buffer insert).
LOG_INSERT_CYCLES = 1

#: Issue cost of one instruction outside its memory latency.
ISSUE_CYCLES = 1

# Address arithmetic, inlined from repro.common.units for the store/load
# inner loops (a line is 64 bytes of eight 8-byte words).
_LINE_MASK = ~(units.LINE_BYTES - 1)
_OFFSET_MASK = units.LINE_BYTES - 1
_WORD_SHIFT = units.WORD_BYTES.bit_length() - 1
_WORD_ALIGN = units.WORD_BYTES - 1
_L1_LOG_BITS = units.WORDS_PER_LINE
_GROUP = units.L1_BITS_PER_L2_BIT
_GROUP_MASK = (1 << _GROUP) - 1
_PM_BASE = layout.PM_BASE


class CoherenceListener(Protocol):
    """Multi-core coherence hooks (see :mod:`repro.multicore`).

    A standalone machine has no listener; in a multi-core system the
    listener serialises cross-core access to each persistent line:
    invalidating or downgrading peer copies, detecting transactional
    conflicts (and resolving them by aborting a peer), and probing peer
    cores' committed-lazy signatures (Section III-C3 across cores).
    """

    def before_read(self, core_id: int, line_addr: int) -> None:
        """A core is about to read *line_addr* (persistent)."""

    def before_write(self, core_id: int, line_addr: int) -> None:
        """A core is about to write *line_addr* (persistent)."""


class Machine:
    """Single-core SLPMT machine executing the simulated ISA."""

    def __init__(
        self,
        scheme: Scheme = SLPMT,
        config: SystemConfig = DEFAULT_CONFIG,
        *,
        pm: Optional[PersistentMemory] = None,
        core_id: int = 0,
        coherence: "Optional[CoherenceListener]" = None,
        checkpoint: "Optional[Callable[[], None]]" = None,
    ) -> None:
        self.scheme = scheme
        self.config = config
        self.stats = SimStats()
        self.now = 0
        #: Identity in a multi-core system (0 when standalone).
        self.core_id = core_id
        #: Multi-core coherence hooks; None in single-core operation.
        self.coherence = coherence
        #: Scheduler checkpoint for deterministic interleaving; also the
        #: point where a conflict-abort raised by a peer lands.
        self.checkpoint = checkpoint

        self.l1 = SetAssocCache("L1", config.l1)
        self.l2 = SetAssocCache("L2", config.l2)
        self.l3 = SetAssocCache("L3", config.l3)
        self.pm = pm if pm is not None else PersistentMemory()
        self.dram = Dram()
        self.wpq = WritePendingQueue(config)
        self.log_buffer = TieredLogBuffer(
            config.log_buffer, coalescing=scheme.coalescing
        )
        self.signatures = SignatureFile(config.signature)
        self.txids = TxIdAllocator(config.num_tx_ids)

        # --- transaction state ---
        self._in_tx = False
        # Sequence numbers frame transactions in the (possibly shared)
        # durable log; cores must never collide, or one core's commit
        # marker could bless another core's interrupted transaction.
        self._next_tx_seq = core_id * 1_000_000_000_000 + 1
        self._tx_seq = 0
        self._cur_txid: Optional[int] = None
        self._tx_written_lines: Set[int] = set()
        self._tx_read_lines: Set[int] = set()
        self._tx_logged_words: Set[int] = set()
        #: Set by a peer core's conflict resolution: this machine's
        #: transaction was already rolled back remotely; the owning
        #: thread must unwind without a second rollback.
        self.aborted_by_conflict = False
        #: Consecutive conflict losses since the last commit (statistic).
        self.conflict_losses = 0
        #: Source of globally comparable transaction start stamps; a
        #: multi-core system injects one shared counter so the wound-wait
        #: arbiter can order transactions by age.
        self.stamp_source = itertools.count()
        #: Start stamp of the running transaction (wound-wait age).
        self.tx_stamp = -1
        #: committed transactions that still own deferred (lazy) lines,
        #: oldest first: tx_id -> set of lazy line addresses.
        self._lazy: "OrderedDict[int, Set[int]]" = OrderedDict()

        # --- crash injection and persist-order tracing ---
        self._persist_countdown: Optional[int] = None
        #: A recording pass's capture probe at the persist-countdown
        #: site (see :meth:`probe_persists`); None crashes there instead.
        self.persist_probe = None
        self.persist_trace: List[CommitPhase] = []
        self.trace_persist_order = False
        #: Optional event tracer (see :mod:`repro.core.tracing`); purely
        #: observational — attaching one never changes behaviour.
        self.tracer: "Optional[Tracer]" = None
        #: Optional cycle-attribution profiler (:mod:`repro.obs`); like
        #: the tracer it only ever *reads* the clock — the CI passivity
        #: gate proves counters are bit-identical with one attached.
        self.profiler: "Optional[CycleProfiler]" = None
        from repro.obs import attach, obs_env_enabled

        if obs_env_enabled():
            attach(self)

    def _trace(self, kind: str, **fields: object) -> None:
        if self.tracer is not None:
            self.tracer.emit(self.now, self.core_id, kind, **fields)

    def _prof_begin(self, phase: str) -> None:
        if self.profiler is not None:
            self.profiler.begin(phase, self.now)

    def _prof_end(self) -> None:
        if self.profiler is not None:
            self.profiler.end(self.now)

    # ------------------------------------------------------------------
    # public execution API
    # ------------------------------------------------------------------

    def run(self, program: Program, *, crash_after_instructions: Optional[int] = None) -> bool:
        """Execute *program*; return True if it finished, False on crash.

        ``crash_after_instructions`` injects a power failure at that
        instruction boundary; combine with
        :meth:`schedule_crash_after_persists` to crash inside a commit.
        """
        try:
            for i, instr in enumerate(program):
                if crash_after_instructions is not None and i >= crash_after_instructions:
                    raise PowerFailure("instruction-boundary crash")
                self.execute(instr)
        except PowerFailure:
            self.crash()
            return False
        return True

    def execute(self, instr: Instruction) -> Optional[int]:
        """Execute one instruction; loads return the value read."""
        if isinstance(instr, Load):
            return self.exec_load(instr.addr)
        if isinstance(instr, StoreT):
            self.exec_storeT(instr.addr, instr.value, instr.lazy, instr.log_free)
            return None
        if isinstance(instr, Store):
            self.exec_store(instr.addr, instr.value)
            return None
        if self.checkpoint is not None:
            self.checkpoint()
        self.stats.instructions += 1
        self.now += ISSUE_CYCLES
        if isinstance(instr, TxBegin):
            self.tx_begin()
        elif isinstance(instr, TxEnd):
            self.tx_end()
        elif isinstance(instr, TxAbort):
            self.tx_abort()
        elif isinstance(instr, Fence):
            self.fence()
        else:
            raise SimulationError(f"unknown instruction {instr!r}")
        return None

    # --- the memory instructions ---------------------------------------
    #
    # ``load``, ``store`` and ``storeT`` with their operands passed
    # directly: the runtime calls these, and execute() dispatches Load /
    # Store / StoreT objects onto them.  Each validates its operand, pays
    # one issue slot, then does one cache access.  The operand check and
    # the lazy-tag check run behind an inline test of the condition they
    # act on, so a legal access to an untagged line calls neither.

    def exec_load(self, addr: int) -> int:
        """Execute ``load addr`` and return the word read."""
        if addr < 0 or addr & _WORD_ALIGN:
            _check_word_operand(addr)
        if self.checkpoint is not None:
            self.checkpoint()
        stats = self.stats
        stats.instructions += 1
        stats.loads += 1
        self.now += ISSUE_CYCLES
        persistent = addr >= _PM_BASE
        if self.coherence is not None and persistent:
            self.coherence.before_read(self.core_id, addr & _LINE_MASK)
        line = self._access(addr)
        if persistent:
            if line.tx_id is not None and line.tx_id in self._lazy:
                self._check_line_txid(line)
            if self._in_tx:
                self._tx_read_lines.add(line.addr)
                if self.scheme.honor_lazy:
                    self.signatures[self._cur_txid].insert(line.addr)
        return line.words[(addr & _OFFSET_MASK) >> _WORD_SHIFT]

    def exec_store(self, addr: int, value: int) -> None:
        """Execute ``store value, addr`` (Table I: persist and log)."""
        if addr < 0 or addr & _WORD_ALIGN:
            _check_word_operand(addr)
        if self.checkpoint is not None:
            self.checkpoint()
        self.stats.instructions += 1
        self.now += ISSUE_CYCLES
        self.stats.stores += 1
        self._do_store(addr, value, persist_flag=True, log_flag=True)

    def exec_storeT(self, addr: int, value: int, lazy: bool, log_free: bool) -> None:
        """Execute ``storeT value, addr, lazy, log_free`` (Table I); the
        scheme may ignore either flag."""
        if addr < 0 or addr & _WORD_ALIGN:
            _check_word_operand(addr)
        if self.checkpoint is not None:
            self.checkpoint()
        self.stats.instructions += 1
        self.now += ISSUE_CYCLES
        self.stats.storeTs += 1
        lazy = lazy and self.scheme.honor_lazy
        log_free = log_free and self.scheme.honor_log_free
        if log_free:
            self.stats.logfree_stores += 1
        self._do_store(addr, value, persist_flag=not lazy, log_flag=not log_free)

    # --- direct (non-simulated) access for setup and validation ---------

    def raw_write(self, addr: int, value: int) -> None:
        """Write PM directly, bypassing timing, caches and logging.

        For workload setup and test fixtures only; invalidates any cached
        copy so subsequent simulated accesses see the value.
        """
        line_addr = addr & _LINE_MASK
        word = (addr & _OFFSET_MASK) >> _WORD_SHIFT
        for cache in (self.l1, self.l2, self.l3):
            line = cache.lookup(line_addr, touch=False)
            if line is not None:
                line.words[word] = value
        self.pm.write_word(addr, value)

    def raw_read(self, addr: int) -> int:
        """Read the current architectural value, preferring cached copies."""
        line_addr = addr & _LINE_MASK
        word = (addr & _OFFSET_MASK) >> _WORD_SHIFT
        line = self.l1.lookup(line_addr, touch=False)
        if line is None:
            line = self.l2.lookup(line_addr, touch=False)
        if line is None:
            line = self.l3.lookup(line_addr, touch=False)
        if line is not None:
            return line.words[word]
        if layout.is_persistent(addr):
            return self.pm.read_word(addr)
        return self.dram.read_word(addr)

    def durable_read(self, addr: int) -> int:
        """Read what *persistent memory* holds (the post-crash value)."""
        return self.pm.read_word(addr)

    # ------------------------------------------------------------------
    # instruction implementations
    # ------------------------------------------------------------------

    def _do_store(self, addr: int, value: int, *, persist_flag: bool, log_flag: bool) -> None:
        if addr < _PM_BASE:
            line = self._access(addr)
            line.write_word((addr & _OFFSET_MASK) >> _WORD_SHIFT, value)
            return

        # Working-set signature probe (Section III-C3): a write that may
        # touch data a committed transaction's lazy lines depend on forces
        # those lines (and all older deferred lines) to PM first.
        line_addr = addr & _LINE_MASK
        if self.coherence is not None:
            self.coherence.before_write(self.core_id, line_addr)
        if self._lazy:
            hits = self.signatures.probe(line_addr, list(self._lazy.keys()))
            if hits:
                self.stats.signature_hits += len(hits)
                self._trace("signature_hit", line=hex(line_addr), tx_ids=tuple(hits))
                self._force_persist_through(hits[-1])

        line = self._access(addr)
        if line.tx_id is not None and line.tx_id in self._lazy:
            self._check_line_txid(line)
        word = (addr & _OFFSET_MASK) >> _WORD_SHIFT

        if self._in_tx:
            self._tx_written_lines.add(line_addr)
            if self.scheme.honor_lazy:
                self.signatures[self._cur_txid].insert(line_addr)
            if log_flag:
                self._log_for_store(line, word)
            if persist_flag:
                line.persist = True
            line.tx_id = self._cur_txid
        # Non-transactional stores are plain cached writes: durable when
        # the line is evicted or a fence persists it.
        line.words[word] = value
        line.dirty = True
        line.state = Mesi.MODIFIED

    def tx_begin(self) -> None:
        if self._in_tx:
            raise TransactionError("nested transactions are not supported")
        if self.profiler is not None:
            self.profiler.note_tx_begin(self.now)
        self._in_tx = True
        self._tx_seq = self._next_tx_seq
        self._next_tx_seq += 1
        self._cur_txid = self._allocate_txid()
        self._tx_written_lines = set()
        self._tx_read_lines = set()
        self._tx_logged_words = set()
        self.aborted_by_conflict = False
        self.tx_stamp = next(self.stamp_source)
        self.stats.transactions += 1
        self._trace("tx_begin", tx_seq=self._tx_seq, tx_id=self._cur_txid)

    def tx_end(self) -> None:
        if not self._in_tx:
            raise TransactionError("tx_end outside a transaction")
        commit_start = self.now
        self._prof_begin("commit-persist")
        try:
            self._commit()
        finally:
            self._prof_end()
            self.stats.commit_cycles += self.now - commit_start
        self.stats.commits += 1
        if self.profiler is not None:
            self.profiler.record("commit_cycles", self.now - commit_start)
            self.profiler.note_tx_end(self.now)
        self.conflict_losses = 0
        self._trace(
            "commit",
            tx_seq=self._tx_seq,
            cycles=self.now - commit_start,
            deferred=self.deferred_line_count(),
        )
        self._in_tx = False
        self._cur_txid = None

    def tx_abort(self) -> None:
        """Abort the running transaction (Section V-B)."""
        if not self._in_tx:
            raise TransactionError("tx_abort outside a transaction")
        self._prof_begin("abort")
        try:
            self._abort()
        finally:
            self._prof_end()
        self.stats.aborts += 1
        if self.profiler is not None:
            self.profiler.note_tx_end(self.now)
        self._trace("abort", tx_seq=self._tx_seq)
        self._in_tx = False
        self._cur_txid = None

    def fence(self) -> None:
        """Persist everything outstanding (non-transactional durability)."""
        records = self.log_buffer.drain_all()
        self._persist_log_records(records, sync=True)
        # Persisting a line only mutates its fields (never the cache
        # structure), so the non-allocating scan is safe here.
        for line in self.l1.iter_matching(self._dirty_persistent):
            self._persist_data_line(line, sync=True)
        for line in self.l2.iter_matching(self._dirty_persistent):
            self._persist_data_line(line, sync=True)

    @staticmethod
    def _dirty_persistent(line: CacheLine) -> bool:
        return line.dirty and line.addr >= _PM_BASE

    # ------------------------------------------------------------------
    # cache hierarchy (exclusive L1/L2, metadata propagation per Fig. 5)
    # ------------------------------------------------------------------

    def _access(self, addr: int) -> CacheLine:
        """Bring the line containing *addr* into L1 and return it.

        A line is one object for as long as it is cached: a hit in L2 or
        L3 moves that object into L1, re-tagging its log bits for the new
        level (Figure 5), and only a fill from PM or DRAM constructs one.
        """
        line_addr = addr & _LINE_MASK
        l1 = self.l1
        line = l1.lookup(line_addr)
        self.now += l1.latency
        if line is not None:
            self.stats.l1_hits += 1
            return line
        stats = self.stats
        stats.l1_misses += 1

        line = self.l2.remove(line_addr)
        self.now += self.l2.latency
        if line is not None:
            stats.l2_hits += 1
            # L2 -> L1: replicate the coarse log bits (Section III-B1).
            line.log_mask = REPLICATE_MASK[line.log_mask]
            line.log_width = _L1_LOG_BITS
        else:
            stats.l2_misses += 1
            line = self.l3.remove(line_addr)
            self.now += self.l3.latency
            if line is not None:
                # An L3 line carries no SLPMT metadata (stripped when it
                # was parked), so it enters L1 with every log bit clear.
                stats.l3_hits += 1
                line.log_width = _L1_LOG_BITS
            else:
                stats.l3_misses += 1
                if line_addr >= _PM_BASE:
                    stats.pm_reads += 1
                    self.now += self.config.pm_read_cycles()
                    words = self.pm.read_line(line_addr)
                else:
                    self.now += self.config.dram_read_cycles()
                    words = self.dram.read_line(line_addr)
                line = new_l1_line(line_addr, words)
        victim = l1.insert(line)
        if victim is not None:
            self._evict_l1(victim)
        return line

    def _evict_l1(self, line: CacheLine) -> None:
        """L1 -> L2: aggregate log bits; optionally log speculatively."""
        self.stats.l1_evictions += 1
        if (
            self.scheme.speculative_logging
            and self._in_tx
            and layout.is_persistent(line.addr)
            and line.tx_id == self._cur_txid
        ):
            self._speculative_fill(line)
        line.log_mask = AGGREGATE_MASK[line.log_mask]
        line.log_width = units.L2_LOG_BITS
        victim = self.l2.insert(line)
        if victim is not None:
            self._evict_l2(victim)

    def _speculative_fill(self, line: CacheLine) -> None:
        """Log clean words of nearly-complete 32-byte groups so the L2
        aggregate bit can be set (the Section III-B1 optimisation).

        Logging a clean word is safe: an unmodified word's current value
        *is* its transaction-start value.  A group qualifies when most of
        it is already logged (here: all but one word).
        """
        for g in range(units.L2_LOG_BITS):
            bits = (line.log_mask >> (g * _GROUP)) & _GROUP_MASK
            if POPCOUNT[bits] == _GROUP - 1:
                # The lowest clear bit of the group is the missing word
                # (matches list.index(False) on the bool view).
                inv = ~bits & _GROUP_MASK
                missing = g * _GROUP + (inv & -inv).bit_length() - 1
                word_address = line.addr + missing * units.WORD_BYTES
                record = LogRecord(word_address, (line.words[missing],))
                self.stats.speculative_log_records += 1
                self.stats.log_records_created += 1
                drained = self.log_buffer.insert(record)
                self._persist_log_records(drained, sync=False)
                line.log_mask |= 1 << missing

    def _evict_l2(self, line: CacheLine) -> None:
        """L2 -> L3: flush this line's log records, write back dirty
        persistent data, strip SLPMT metadata (L3 keeps none)."""
        self.stats.l2_evictions += 1
        if layout.is_persistent(line.addr):
            records = self.log_buffer.extract_for_line(line.addr)
            if records:
                if self.scheme.logging_mode is LoggingMode.REDO:
                    # Redo records must carry the newest values; the line
                    # is mid-eviction, so refresh from it explicitly.
                    records = [
                        LogRecord(
                            r.addr,
                            tuple(
                                line.words[
                                    units.word_index(r.addr) : units.word_index(r.addr)
                                    + len(r.words)
                                ]
                            ),
                        )
                        for r in records
                    ]
                # Undo discipline: the pre-image must be durable before
                # the updated data can leave the transactional domain.
                self._persist_log_records(records, sync=False)
            if line.dirty:
                if (
                    self.scheme.logging_mode is LoggingMode.REDO
                    and self._in_tx
                    and line.tx_id == self._cur_txid
                ):
                    # No-steal under redo: uncommitted data must not reach
                    # PM; the line parks dirty in L3 and is persisted at
                    # commit (L3 is large enough that re-eviction of an
                    # active transaction's line does not happen in our
                    # workloads; a violation would assert below).
                    self._park_in_l3(line)
                    return
                self._persist_data_line(line, sync=False)
        elif line.dirty:
            self.dram.write_line(line.addr, line.words)
            line.dirty = False
        self._park_in_l3(line)

    def _park_in_l3(self, line: CacheLine) -> None:
        """L2 -> L3: the line keeps its words, dirty bit and coherence
        state and loses its SLPMT metadata (persist bit, tx ID, log
        bits).  :meth:`_evict_l2` has written back every dirty line it
        parks except uncommitted redo data, which parks dirty."""
        line.persist = False
        line.tx_id = None
        line.log_mask = 0
        line.log_width = 0
        victim = self.l3.insert(line)
        if victim is not None:
            self._evict_l3(victim)

    def _evict_l3(self, line: CacheLine) -> None:
        self.stats.l3_evictions += 1
        if line.dirty:
            if layout.is_persistent(line.addr):
                raise SimulationError(
                    "dirty uncommitted persistent line evicted from L3 "
                    "(redo no-steal violated; enlarge L3 or shrink the "
                    "transaction)"
                )
            self.dram.write_line(line.addr, line.words)

    # ------------------------------------------------------------------
    # logging
    # ------------------------------------------------------------------

    def _log_for_store(self, line: CacheLine, word: int) -> None:
        """Create an undo/redo record for the word about to be stored,
        unless its log bit says one already exists (Section II)."""
        if self.scheme.log_granularity == "line":
            if line.log_mask:
                return  # a line record exists (redo updates at commit)
            payload = tuple(line.words)
            record = LogRecord(line.addr, payload)
            line.log_mask = (1 << line.log_width) - 1
        else:
            bit = 1 << word
            if line.log_mask & bit:
                if self.scheme.logging_mode is LoggingMode.REDO:
                    self._update_redo_record(line, word)
                return
            word_address = line.addr + word * units.WORD_BYTES
            record = LogRecord(word_address, (line.words[word],))
            line.log_mask |= bit
            if word_address in self._tx_logged_words:
                self.stats.duplicate_log_records += 1
            self._tx_logged_words.add(word_address)
        self.stats.log_records_created += 1
        self.stats.log_words_logged += len(record.words)
        self._prof_begin("log-append")
        self.now += LOG_INSERT_CYCLES
        drained = self.log_buffer.insert(record)
        self._persist_log_records(drained, sync=False)
        self._prof_end()

    def _update_redo_record(self, line: CacheLine, word: int) -> None:
        """Redo logging must capture the *final* value of a word.

        While the record is still buffered, nothing is needed: the commit
        drain re-reads the line's current contents.  But if the record
        already drained to PM (tier overflow), the durable copy holds a
        stale value, so a fresh record is appended — recovery replays the
        log in order, and the later record wins.
        """
        word_address = line.addr + word * units.WORD_BYTES
        if self.log_buffer.covers_word(word_address):
            return
        record = LogRecord(word_address, (line.words[word],))
        self.stats.log_records_created += 1
        drained = self.log_buffer.insert(record)
        self._persist_log_records(drained, sync=False)

    def _redo_fill_records(self, lines: "List[CacheLine]") -> List[LogRecord]:
        """Redo commit safety net: records covering every word of a
        committing line that no buffered/drained record describes.

        Without them, a log-free word sharing a line with a logged word
        (the media-fault campaign's mixed-line case), or a line whose
        log bits were stripped by an L3 park, would have no durable copy
        of its new value — a crash between the commit marker and the
        line's post-marker persist would silently revert those words to
        their pre-image inside a committed transaction.  Values logged
        here may duplicate buffered records; replay order makes the
        commit-time copy win, so the duplication is benign.
        """
        fills: List[LogRecord] = []
        for line in lines:
            i = 0
            mask = line.log_mask
            nwords = len(line.words)
            while i < nwords:
                if mask & (1 << i):
                    i += 1
                    continue
                # Largest naturally-aligned buddy span of unlogged words
                # starting here (the line base is 64-byte aligned, so
                # alignment reduces to the word index).
                size = 1
                for cand in (8, 4, 2):
                    if i % cand == 0 and i + cand <= nwords and not (
                        mask & (((1 << cand) - 1) << i)
                    ):
                        size = cand
                        break
                fills.append(
                    LogRecord(
                        line.addr + i * units.WORD_BYTES,
                        tuple(line.words[i : i + size]),
                    )
                )
                i += size
        for record in fills:
            self.stats.log_records_created += 1
            self.stats.log_words_logged += len(record.words)
        return fills

    def _persist_log_records(self, records: List[LogRecord], *, sync: bool) -> None:
        """Persist *records* to the PM log region, packed into lines.

        The pad-style buffer packs variable-size records back to back, so
        the traffic is the summed record size rounded up to whole lines.
        """
        if not records:
            return
        self._prof_begin("log-drain")
        if self.profiler is not None:
            for record in records:
                self.profiler.record("log_record_bytes", record.size_bytes)
        total_bytes = sum(r.size_bytes for r in records)
        lines = (total_bytes + units.LINE_BYTES - 1) // units.LINE_BYTES
        # Make the entries visible to recovery before paying for the line
        # writes: a crash part-way through the drain then sees a superset
        # of the truly durable records, which is safe — undo pre-images
        # of data that never reached PM restore the values PM already
        # holds, and redo records without a commit marker are ignored.
        kind = "undo" if self.scheme.logging_mode is LoggingMode.UNDO else "redo"
        for record in records:
            words = record.words
            if kind == "redo":
                words = self._current_words(record)
            self.pm.log_append(
                DurableLogEntry(kind=kind, tx_seq=self._tx_seq, addr=record.addr, words=words)
            )
        for _ in range(lines):
            self._wpq_insert(sync=sync, phase=CommitPhase.LOG_RECORDS)
        self.stats.pm_log_lines_written += lines
        self.stats.pm_log_bytes_written += total_bytes
        self.stats.pm_bytes_written += total_bytes
        self.stats.log_records_persisted += len(records)
        self._prof_end()

    def persist_protocol_entries(
        self,
        entries: "List[DurableLogEntry]",
        *,
        phase: str,
        label: "Optional[Dict[str, Any]]" = None,
    ) -> None:
        """Durably append cross-shard 2PC protocol records.

        The entries ride the ordinary log-append path — the attached
        fault model sees every append, and the serialized stream CRCs
        them like any other record — then pay synchronous WPQ drains for
        the lines they occupy, so a scheduled persist-countdown crash
        can land between the append and its durability.  *phase* names
        the obs attribution bucket (``"prepare-persist"`` /
        ``"decide-persist"``); *label* identifies the span on the
        machine tracer (``gtx`` id and 2PC ``step`` family —
        pre-prepare / prepared / pre-decision / post-decision /
        applied) instead of an anonymous ``protocol_persist`` mark.
        """
        if not entries:
            return
        self._prof_begin(phase)
        self._trace("protocol_persist", records=len(entries), **(label or {}))
        total_bytes = sum(
            logregion.wire_words(e.kind, len(e.words)) * units.WORD_BYTES
            for e in entries
        )
        lines = (total_bytes + units.LINE_BYTES - 1) // units.LINE_BYTES
        for entry in entries:
            self.pm.log_append(entry)
        for _ in range(lines):
            self._wpq_insert(sync=True, phase=CommitPhase.LOG_RECORDS)
        self.stats.pm_log_lines_written += lines
        self.stats.pm_log_bytes_written += total_bytes
        self.stats.pm_bytes_written += total_bytes
        self.stats.log_records_persisted += len(entries)
        self._prof_end()

    def _current_words(self, record: LogRecord) -> Tuple[int, ...]:
        """For redo records, read the line's current (newest) values."""
        line = self.l1.lookup(record.line_addr, touch=False) or self.l2.lookup(
            record.line_addr, touch=False
        )
        if line is None:
            return record.words
        start = units.word_index(record.addr)
        return tuple(line.words[start : start + len(record.words)])

    def _persist_data_line(
        self,
        line: CacheLine,
        *,
        sync: bool,
        phase: CommitPhase = CommitPhase.LOGGED_LINES,
    ) -> None:
        """Write one dirty cache line back to PM through the WPQ."""
        self._wpq_insert(sync=sync, phase=phase)
        self.pm.write_line(line.addr, line.words)
        self.stats.pm_data_lines_written += 1
        self.stats.pm_data_bytes_written += units.LINE_BYTES
        self.stats.pm_bytes_written += units.LINE_BYTES
        line.dirty = False
        line.persist = False
        if line.tx_id is not None and line.tx_id in self._lazy:
            self._lazy[line.tx_id].discard(line.addr)
        if not self._in_tx or line.tx_id != self._cur_txid:
            line.tx_id = None

    def _wpq_insert(self, *, sync: bool, phase: CommitPhase) -> None:
        """One durability event: a cache line enters the WPQ.

        Synchronous (ordered, commit-critical-path) persists pay the
        coherence round trip to the memory controller and back
        (``persist_ack_latency``); background write-backs and forced lazy
        persists only stall when the queue is full.
        """
        if self._persist_countdown is not None:
            if self._persist_countdown <= 0:
                self._persist_point()
            else:
                self._persist_countdown -= 1
        if self.trace_persist_order:
            self.persist_trace.append(phase)
        # Close the current PM write-journal group: everything written
        # since the previous durability event rides this WPQ drain, which
        # is the granularity at which drop-drain faults revert media.
        self.pm.note_durability_event()
        result = self.wpq.insert(self.now)
        if sync:
            self.now = result.finish_time + self.config.persist_ack_cycles()
        else:
            self.now += result.stall_cycles
        self.stats.wpq_stall_cycles += result.stall_cycles
        if self.profiler is not None:
            self.profiler.reattribute(
                "wpq-stall", result.stall_cycles, self.now
            )
            self.profiler.record(
                "wpq_occupancy", self.wpq.pending_at(self.now)
            )

    # ------------------------------------------------------------------
    # commit / abort
    # ------------------------------------------------------------------

    def _commit(self) -> None:
        """Commit per Section II + Figure 4."""
        if self.config.battery_backed_cache:
            self._commit_battery_backed()
            return
        # 1. Discard buffered records of lazy lines: their pre-image is
        #    useless because the new data never leaves the cache eagerly.
        #    Undo only — a redo record holds the NEW image and is the
        #    sole recovery copy of a line that has not persisted yet;
        #    dropping it makes any post-marker crash unrecoverable for
        #    that line (committed transaction, unlogged lost data).
        if self.scheme.honor_lazy and self.scheme.logging_mode is LoggingMode.UNDO:
            self._discard_lazy_records()
        records = self.log_buffer.drain_all()

        # 2. Classify this transaction's surviving dirty lines.  Under
        #    redo every line commits as a logged line: recovery restores
        #    committed data *only* from redo records, so a line that
        #    persists before the marker would expose uncommitted words
        #    in place, and one that stays behind (lazy) or carries
        #    unlogged log-free words would silently revert to its
        #    pre-image after a post-marker crash.  The fill records
        #    below make every committing line fully replayable; the
        #    selective-logging benefit under redo is the avoided *eager*
        #    mid-transaction log traffic, not a thinner commit.
        logged: List[CacheLine] = []
        logfree: List[CacheLine] = []
        lazy: List[CacheLine] = []
        for line_addr in sorted(self._tx_written_lines):
            line = self._find_private(line_addr)
            if line is None and self.scheme.logging_mode is LoggingMode.REDO:
                line = self.l3.lookup(line_addr, touch=False)
            if line is None or not line.dirty:
                continue  # already written back via eviction
            if self.scheme.logging_mode is LoggingMode.REDO:
                logged.append(line)
            elif not line.persist:
                lazy.append(line)
            elif line.any_log_bit():
                logged.append(line)
            else:
                logfree.append(line)
        if self.scheme.logging_mode is LoggingMode.REDO:
            records = records + self._redo_fill_records(logged)

        # 3. Persist in the Figure-4 order for the logging discipline.
        for phase in commit_phases(self.scheme.logging_mode):
            if phase is CommitPhase.LOG_RECORDS:
                self._persist_log_records(records, sync=True)
                if self.scheme.logging_mode is LoggingMode.REDO and (
                    records or self.pm.has_live_records(self._tx_seq)
                ):
                    self._persist_commit_marker()
            elif phase is CommitPhase.LOGFREE_LINES:
                for line in logfree:
                    self._persist_data_line(line, sync=True, phase=phase)
            else:
                for line in logged:
                    self._persist_data_line(line, sync=True, phase=phase)
        if self.scheme.logging_mode is LoggingMode.UNDO and (
            records or logged or logfree or self.pm.has_live_records(self._tx_seq)
        ):
            # A transaction that made nothing durable needs no marker:
            # recovery has nothing to roll back either way.  (Volatile-
            # only and empty transactions commit for free.)
            self._persist_commit_marker()
        self.pm.log_discard_tx(self._tx_seq)
        self.stats.commit_lines_persisted += len(logged) + len(logfree)

        # 4. Lazy lines stay in the cache; remember them (and keep the
        #    working-set signature alive) until a dependent write forces
        #    them out or the transaction ID is recycled.
        if lazy and self.scheme.honor_lazy:
            self._lazy[self._cur_txid] = {line.addr for line in lazy}
            self.stats.lazy_lines_deferred += len(lazy)
        else:
            self.signatures.clear(self._cur_txid)
            self.txids.release(self._cur_txid)
        for line in logged + logfree:
            line.log_mask = 0
            line.tx_id = None
        for line in lazy:
            # The records of lazy lines were discarded above, so their
            # log bits are stale the moment the transaction ends; a later
            # transaction's store must create a fresh record.  The tx_id
            # stays: it is what triggers the forced persist on access.
            line.log_mask = 0

    def _commit_battery_backed(self) -> None:
        """Section V-E commit: the cache hierarchy is durable, so data
        needs no persisting and buffered records become useless the
        moment the transaction commits.  Only transactions whose working
        set overflowed the cache (their records already reached PM via
        evictions) need a durable commit marker so recovery will not roll
        them back."""
        dropped = self.log_buffer.drain_all()
        self.stats.log_records_discarded_lazy += len(dropped)
        if self.pm.has_live_records(self._tx_seq):
            self._persist_commit_marker()
            self.pm.log_discard_tx(self._tx_seq)
        for line_addr in self._tx_written_lines:
            line = self._find_private(line_addr)
            if line is None:
                continue
            line.log_mask = 0
            line.persist = False
            line.tx_id = None
        self.signatures.clear(self._cur_txid)
        self.txids.release(self._cur_txid)

    def _persist_commit_marker(self) -> None:
        """Write the durable end-of-transaction marker (one log line)."""
        self._wpq_insert(sync=True, phase=CommitPhase.COMMIT_MARKER)
        self.stats.pm_log_lines_written += 1
        self.stats.pm_log_bytes_written += units.LINE_BYTES
        self.stats.pm_bytes_written += units.LINE_BYTES
        self.pm.log_append(DurableLogEntry(kind="commit", tx_seq=self._tx_seq))

    def _discard_lazy_records(self) -> None:
        """Commit step: drop buffered records whose line is lazy
        (Section III-B2, last paragraph)."""
        for line_addr in self._tx_written_lines:
            line = self._find_private(line_addr)
            if line is None or line.persist or not line.dirty:
                continue
            dropped = self.log_buffer.extract_for_line(line_addr)
            if dropped:
                self.stats.log_records_discarded_lazy += len(dropped)

    def _abort(self) -> None:
        """Roll back the running transaction (Section V-B).

        Volatile updates are revoked by invalidating the transaction's
        cache lines; already-persisted updates are revoked by applying
        the durable undo records (the kernel-space replay).
        """
        if self.scheme.logging_mode is not LoggingMode.UNDO:
            raise TransactionError("abort requires undo logging")
        self.log_buffer.clear()
        for line_addr in self._tx_written_lines:
            for cache in (self.l1, self.l2, self.l3):
                cache.remove(line_addr)
        # Kernel-space undo replay of records that already reached PM;
        # the replay is the in-run form of recovery, so its cycles are
        # attributed to the "recovery" phase.
        entries = self.pm.log_entries_for(self._tx_seq)
        self._prof_begin("recovery")
        for entry in reversed(entries):
            if entry.kind != "undo":
                continue
            if self.profiler is not None:
                self.profiler.count("recovery.abort_words_restored", len(entry.words))
            for i, word in enumerate(entry.words):
                self.pm.write_word(entry.addr + i * units.WORD_BYTES, word)
            self.now += self.config.pm_write_cycles()
        self._prof_end()
        if entries:
            # An abort marker makes the serialized copies of the replayed
            # records inert for any future crash recovery.
            self.pm.log_append(DurableLogEntry(kind="abort", tx_seq=self._tx_seq))
        self.pm.log_discard_tx(self._tx_seq)
        self.signatures.clear(self._cur_txid)
        self.txids.release(self._cur_txid)

    # ------------------------------------------------------------------
    # lazy persistency machinery
    # ------------------------------------------------------------------

    def _allocate_txid(self) -> int:
        tx_id = self.txids.allocate()
        while tx_id is None:
            oldest = self.txids.oldest_active()
            if oldest is None:
                raise SimulationError("no free tx id and none active")
            self.stats.txid_reclaims += 1
            self._trace("txid_reclaim", tx_id=oldest)
            self._force_persist_through(oldest)
            tx_id = self.txids.allocate()
        return tx_id

    def _check_line_txid(self, line: CacheLine) -> None:
        """Accessing a line tagged by an older committed transaction
        forces that transaction's deferred data to PM (Section III-C3)."""
        if line.tx_id is None or line.tx_id not in self._lazy:
            return
        if self._in_tx and line.tx_id == self._cur_txid:
            return
        self._force_persist_through(line.tx_id)

    def _force_persist_through(self, tx_id: int) -> None:
        """Persist the deferred lines of *tx_id* and every older deferred
        transaction, oldest first, then free their IDs and signatures."""
        if tx_id not in self._lazy:
            return
        to_flush: List[int] = []
        for candidate in self._lazy:
            to_flush.append(candidate)
            if candidate == tx_id:
                break
        self._prof_begin("forced-lazy")
        for tid in to_flush:
            line_addrs = self._lazy.pop(tid)
            self._trace("forced_lazy", tx_id=tid, lines=len(line_addrs))
            for line_addr in sorted(line_addrs):
                line = self._find_private(line_addr)
                if line is None or not line.dirty:
                    continue  # already written back by an eviction
                self.stats.lazy_lines_forced += 1
                # Off the critical path (Section III-C3): the persists
                # ride the store buffer / coherence machinery; the core
                # only stalls if the WPQ backs up.
                self._persist_data_line(
                    line, sync=False, phase=CommitPhase.LOGGED_LINES
                )
                line.tx_id = None
            self.signatures.clear(tid)
            self.txids.release(tid)
        self._prof_end()

    def _find_private(self, line_addr: int) -> Optional[CacheLine]:
        return self.l1.lookup(line_addr, touch=False) or self.l2.lookup(
            line_addr, touch=False
        )

    # ------------------------------------------------------------------
    # multi-core support (conflict detection and remote service)
    # ------------------------------------------------------------------

    def tx_conflicts_with_read(self, line_addr: int) -> bool:
        """Would a peer's *read* of the line conflict with this core's
        running transaction?  Only writes are speculative: reading a
        line this transaction merely read is fine."""
        return self._in_tx and line_addr in self._tx_written_lines

    def tx_conflicts_with_write(self, line_addr: int) -> bool:
        """Would a peer's *write* of the line conflict?  Both the read
        and write sets are protected (the classic HTM rule)."""
        return self._in_tx and (
            line_addr in self._tx_written_lines or line_addr in self._tx_read_lines
        )

    def abort_by_conflict(self) -> None:
        """Abort this core's running transaction on behalf of a peer.

        Called from the conflicting requester (the coherence logic): the
        rollback happens immediately so the requester observes pre-
        transaction state; the victim's thread unwinds at its next
        checkpoint via :class:`TransactionAborted` and must skip the
        second rollback (``aborted_by_conflict`` is set).
        """
        if not self._in_tx:
            raise SimulationError("conflict abort of an idle core")
        self._prof_begin("abort")
        try:
            self._abort()
        finally:
            self._prof_end()
        if self.profiler is not None:
            self.profiler.note_tx_end(self.now)
        self.stats.aborts += 1
        self.stats.wound_wait_aborts += 1
        self.conflict_losses += 1
        self._trace("conflict_abort", tx_seq=self._tx_seq)
        self._in_tx = False
        self._cur_txid = None
        self.aborted_by_conflict = True

    def has_copy(self, line_addr: int) -> bool:
        """Whether any private level holds the line."""
        return (
            self.l1.contains(line_addr)
            or self.l2.contains(line_addr)
            or self.l3.contains(line_addr)
        )

    def flush_line(self, line_addr: int) -> None:
        """Service a peer's read: make the line's current value visible
        through PM (write back if dirty), keeping a clean local copy."""
        for cache in (self.l1, self.l2, self.l3):
            line = cache.lookup(line_addr, touch=False)
            if line is None:
                continue
            if line.dirty and layout.is_persistent(line.addr):
                records = self.log_buffer.extract_for_line(line.addr)
                if records:
                    self._persist_log_records(records, sync=False)
                self._persist_data_line(line, sync=False)
            line.state = Mesi.SHARED
            return

    def invalidate_line(self, line_addr: int) -> None:
        """Service a peer's write: surrender the line entirely."""
        self.flush_line(line_addr)
        for cache in (self.l1, self.l2, self.l3):
            cache.remove(line_addr)

    def force_lazy_for_line(self, line_addr: int) -> bool:
        """If *line_addr* is one of this core's committed-lazy lines,
        persist that transaction's whole deferred set (the cross-core
        form of the Section III-C3 access check).  Returns True when a
        forced persist happened."""
        for tid, lines in self._lazy.items():
            if line_addr in lines:
                self.stats.forced_lazy_by_peer += 1
                self._force_persist_through(tid)
                return True
        return False

    def service_peer_write(self, line_addr: int) -> None:
        """Full peer-write service: first the Section III-C3 signature
        check (a peer is about to modify data this core's committed-lazy
        lines may depend on — persist them first), then surrender the
        line.  Callers resolve transactional conflicts beforehand."""
        if self._lazy:
            hits = self.signatures.probe(line_addr, list(self._lazy.keys()))
            if hits:
                self.stats.signature_hits += len(hits)
                self.stats.forced_lazy_by_peer += 1
                self._force_persist_through(hits[-1])
        self.invalidate_line(line_addr)

    # ------------------------------------------------------------------
    # context switch (Section V-C)
    # ------------------------------------------------------------------

    def context_switch(self) -> None:
        """Prepare for a thread switch (Section V-C).

        The OS kernel drains the log buffer so the outgoing thread's
        pre-images are durable regardless of what the incoming thread
        evicts; persisting undo records early is always safe.  Signatures
        and the transaction-ID register are *not* touched: they describe
        committed transactions' deferred data, which is not specific to a
        context — the hardware keeps tracking dependencies across the
        switch.  May be called mid-transaction (preemption).
        """
        records = self.log_buffer.drain_all()
        self._trace("context_switch", drained=len(records))
        self._persist_log_records(records, sync=True)

    # ------------------------------------------------------------------
    # crash semantics
    # ------------------------------------------------------------------

    def schedule_crash_after_persists(self, count: int) -> None:
        """Inject a power failure at the ``count``-th next durability
        event (0 crashes at the very next one)."""
        self._persist_countdown = count

    def probe_persists(self, probe) -> None:
        """Arm a recording pass's capture *probe* where
        :meth:`schedule_crash_after_persists` would crash: at each of its
        points (durability events from now, ascending) the machine calls
        ``probe.hit()`` — which captures the crash image and returns the
        next point, or None — and runs on."""
        self.persist_probe = probe
        self._persist_countdown = probe.at

    def _persist_point(self) -> None:
        probe = self.persist_probe
        if probe is None:
            raise PowerFailure("persist-countdown crash")
        point = probe.at
        after = probe.hit()
        self._persist_countdown = None if after is None else after - point - 1

    def cancel_scheduled_crash(self) -> None:
        self._persist_countdown = None
        self.persist_probe = None

    def crash(self) -> None:
        """Power failure: everything volatile vanishes; the WPQ drains
        into PM (ADR); the PM backing store and durable log survive.

        With battery-backed caches (Section V-E) the battery first drains
        the log buffer and then flushes every dirty persistent line, so
        the post-crash image contains the cached data — committed data
        survives outright and in-flight data is revocable through the
        drained undo records.
        """
        self._trace("crash", in_tx=self._in_tx, tx_seq=self._tx_seq)
        if self.profiler is not None:
            # The failure may have landed mid-span; close everything so
            # attribution stays an exact partition of the clock.
            self.profiler.unwind(self.now)
        if self.config.battery_backed_cache:
            self._battery_flush()
        self.l1.clear()
        self.l2.clear()
        self.l3.clear()
        self.log_buffer.clear()
        self.signatures.clear_all()
        self.txids.reset()
        self._lazy.clear()
        self.dram.crash()
        self.wpq.reset()
        self._in_tx = False
        self._cur_txid = None
        self._tx_written_lines = set()
        self._tx_logged_words = set()
        self._persist_countdown = None

    def _battery_flush(self) -> None:
        """Battery-powered drain at power failure: records first (the
        pre-images must land before the data they revoke), then every
        dirty persistent cache line.  Crash injection is disabled — the
        flush itself cannot 'crash again'."""
        self._persist_countdown = None
        kind = "undo" if self.scheme.logging_mode is LoggingMode.UNDO else "redo"
        for record in self.log_buffer.drain_all():
            self.pm.log_append(
                DurableLogEntry(
                    kind=kind, tx_seq=self._tx_seq, addr=record.addr, words=record.words
                )
            )
            self.stats.log_records_persisted += 1
        for cache in (self.l1, self.l2, self.l3):
            for line in cache.iter_matching(self._dirty_persistent):
                self.pm.write_line(line.addr, line.words)
                line.dirty = False

    # ------------------------------------------------------------------
    # bookkeeping
    # ------------------------------------------------------------------

    def finalize(self) -> None:
        """Account the background WPQ drain at the end of a run, so the
        reported cycles cover everything the run made durable."""
        self.now = max(self.now, self.wpq.drained_at())
        self.stats.cycles = self.now
        if self.profiler is not None:
            self.profiler.finalize(self.now)

    @property
    def in_transaction(self) -> bool:
        return self._in_tx

    @property
    def current_tx_seq(self) -> int:
        return self._tx_seq

    def deferred_line_count(self) -> int:
        """Number of committed-lazy lines still volatile."""
        return sum(len(s) for s in self._lazy.values())

    def lazy_tx_ids(self) -> List[int]:
        return list(self._lazy.keys())

"""The SLPMT machine: execution, commit, lazy persistency, abort, crash."""

import pytest

from repro.common import units
from repro.common.config import DEFAULT_CONFIG
from repro.common.errors import TransactionError
from repro.core.machine import Machine
from repro.core.schemes import FG, SLPMT, SLPMT_SPEC, Scheme
from repro.isa.instructions import Fence, Load, Store, StoreT, TxBegin, TxEnd
from repro.isa.program import ProgramBuilder
from repro.mem import layout
from repro.recovery.engine import recover

BASE = layout.PM_HEAP_BASE


def machine(scheme=SLPMT, config=DEFAULT_CONFIG):
    return Machine(scheme, config)


class TestBasicExecution:
    def test_load_returns_stored_value(self):
        m = machine()
        m.execute(TxBegin())
        m.execute(Store(BASE, 123))
        assert m.execute(Load(BASE)) == 123

    def test_load_sees_pm_contents(self):
        m = machine()
        m.raw_write(BASE + 8, 9)
        assert m.execute(Load(BASE + 8)) == 9

    def test_cycles_advance(self):
        m = machine()
        before = m.now
        m.execute(Load(BASE))
        assert m.now > before

    def test_l1_hit_faster_than_miss(self):
        m = machine()
        m.execute(Load(BASE))
        t0 = m.now
        m.execute(Load(BASE))
        hit_cost = m.now - t0
        t1 = m.now
        m.execute(Load(BASE + 1024 * 1024))
        miss_cost = m.now - t1
        assert miss_cost > hit_cost

    def test_stats_counters(self):
        m = machine()
        m.execute(TxBegin())
        m.execute(Store(BASE, 1))
        m.execute(StoreT(BASE + 8, 2, log_free=True))
        m.execute(Load(BASE))
        m.execute(TxEnd())
        assert m.stats.instructions == 5
        assert m.stats.loads == 1
        assert m.stats.stores == 1
        assert m.stats.storeTs == 1
        assert m.stats.commits == 1

    def test_unknown_transaction_misuse(self):
        m = machine()
        with pytest.raises(TransactionError):
            m.execute(TxEnd())
        m.execute(TxBegin())
        with pytest.raises(TransactionError):
            m.execute(TxBegin())


class TestCommitDurability:
    def test_commit_persists_logged_data(self):
        m = machine()
        m.run(ProgramBuilder().tx_begin().store(BASE, 42).tx_end().build())
        assert m.durable_read(BASE) == 42

    def test_uncommitted_data_not_durable(self):
        m = machine()
        m.execute(TxBegin())
        m.execute(Store(BASE, 42))
        assert m.durable_read(BASE) == 0

    def test_commit_clears_undo_records(self):
        m = machine()
        m.run(ProgramBuilder().tx_begin().store(BASE, 42).tx_end().build())
        assert m.pm.log == []

    def test_commit_traffic_accounting(self):
        m = machine()
        m.run(ProgramBuilder().tx_begin().store(BASE, 42).tx_end().build())
        stats = m.stats
        assert stats.pm_data_lines_written == 1
        assert stats.pm_log_lines_written == 2  # records line + commit marker
        assert stats.pm_bytes_written == (
            stats.pm_log_bytes_written + stats.pm_data_bytes_written
        )

    def test_non_transactional_store_durable_via_fence(self):
        m = machine()
        m.execute(Store(BASE, 7))
        assert m.durable_read(BASE) == 0
        m.execute(Fence())
        assert m.durable_read(BASE) == 7


class TestLogging:
    def test_one_record_per_word(self):
        m = machine()
        m.execute(TxBegin())
        for i in range(4):
            m.execute(Store(BASE + i * 8, i))
        assert m.stats.log_records_created == 4
        assert m.stats.log_words_logged == 4

    def test_log_free_skips_records(self):
        m = machine()
        m.execute(TxBegin())
        for i in range(4):
            m.execute(StoreT(BASE + i * 8, i, log_free=True))
        assert m.stats.log_records_created == 0

    def test_records_capture_pre_store_values(self):
        m = machine()
        m.raw_write(BASE, 100)
        m.execute(TxBegin())
        m.execute(Store(BASE, 200))
        m.execute(Fence())  # push records to the durable log
        undo = [e for e in m.pm.log if e.kind == "undo"]
        assert undo and undo[0].words == (100,)

    def test_line_granularity_logs_whole_line(self):
        m = machine(Scheme(name="line", log_granularity="line"))
        m.execute(TxBegin())
        m.execute(Store(BASE, 1))
        m.execute(Store(BASE + 8, 2))  # same line: no second record
        assert m.stats.log_records_created == 1
        assert m.stats.log_words_logged == 8


class TestMetadataPropagation:
    """Section III-B1: the L1<->L2 round trip."""

    def _evict_line(self, m, addr):
        """Force the line out of L1 by filling its set."""
        set_bits = m.l1.config.num_sets * units.LINE_BYTES
        for i in range(1, m.l1.config.ways + 1):
            m.execute(Load(addr + i * set_bits))

    def test_duplicate_logging_after_partial_roundtrip(self):
        m = machine()
        m.execute(TxBegin())
        m.execute(Store(BASE, 1))  # logs one word of the line
        self._evict_line(m, BASE)  # aggregate loses the partial group
        m.execute(Store(BASE, 2))  # line fetched back, log bit unset
        assert m.stats.duplicate_log_records >= 1

    def test_full_group_roundtrip_avoids_duplicates(self):
        m = machine()
        m.execute(TxBegin())
        for i in range(8):
            m.execute(Store(BASE + i * 8, i))  # all 8 words logged
        self._evict_line(m, BASE)
        m.execute(Store(BASE, 99))  # replicated log bits say: logged
        assert m.stats.duplicate_log_records == 0

    def test_roundtrip_duplicate_never_outruns_the_first_pre_image(self):
        # FG logs every word: words 0 and 1 merge into one tier-1 record
        # whose pre-images are 0.  The round trip clears word 0's log
        # bit (its 32-B group was half logged), so the next store logs
        # word 0 again with the transaction's own first write (1) as its
        # "old value".
        m = machine(FG)
        m.execute(TxBegin())
        m.execute(Store(BASE, 1))
        m.execute(Store(BASE + 8, 2))
        self._evict_line(m, BASE)
        m.execute(Store(BASE, 3))
        assert m.stats.duplicate_log_records == 1
        # Nine unmergeable word records fill tier 0 and drain it.
        for i in range(1, 10):
            m.execute(Store(BASE + i * units.LINE_BYTES, i))
        assert m.log_buffer.covers_word(BASE)  # the first pre-image
        assert [
            e.words
            for e in m.pm.log
            if e.kind == "undo" and e.addr <= BASE < e.addr + len(e.words) * 8
        ] == []
        # Push the line past L2: its record persists, then its data (3).
        l2_stride = m.l2.config.num_sets * units.LINE_BYTES
        for i in range(1, m.l1.config.ways + m.l2.config.ways + 1):
            m.execute(Load(BASE + i * l2_stride))
        assert m.pm.read_word(BASE) == 3
        m.crash()
        recover(m.pm, mode=m.scheme.logging_mode)
        assert m.pm.read_word(BASE) == 0
        assert m.pm.read_word(BASE + 8) == 0

    def test_speculative_logging_fills_group(self):
        m = machine(SLPMT_SPEC)
        m.execute(TxBegin())
        for i in range(3):  # three of four words in the first group
            m.execute(Store(BASE + i * 8, i))
        self._evict_line(m, BASE)
        assert m.stats.speculative_log_records >= 1
        m.execute(Store(BASE + 3 * 8, 3))
        assert m.stats.duplicate_log_records == 0


class TestLazyPersistency:
    def lazy_store(self, m, addr, value):
        m.execute(StoreT(addr, value, lazy=True, log_free=True))

    def test_lazy_line_deferred_after_commit(self):
        m = machine()
        m.execute(TxBegin())
        self.lazy_store(m, BASE, 5)
        m.execute(TxEnd())
        assert m.deferred_line_count() == 1
        assert m.durable_read(BASE) == 0
        assert m.stats.lazy_lines_deferred == 1

    def test_store_to_working_set_forces_persist(self):
        m = machine()
        m.execute(TxBegin())
        self.lazy_store(m, BASE, 5)
        m.execute(TxEnd())
        m.execute(TxBegin())
        m.execute(Store(BASE + 8, 1))  # same line: tx-id check fires
        assert m.durable_read(BASE) == 5
        assert m.deferred_line_count() == 0

    def test_signature_hit_forces_persist(self):
        m = machine()
        m.execute(TxBegin())
        m.execute(Load(BASE + 4096))  # read set entry
        self.lazy_store(m, BASE, 5)
        m.execute(TxEnd())
        m.execute(TxBegin())
        m.execute(Store(BASE + 4096, 9))  # store to the read set
        assert m.stats.signature_hits >= 1
        assert m.durable_read(BASE) == 5

    def test_load_of_lazy_line_forces_persist(self):
        m = machine()
        m.execute(TxBegin())
        self.lazy_store(m, BASE, 5)
        m.execute(TxEnd())
        m.execute(TxBegin())
        m.execute(Load(BASE))
        assert m.durable_read(BASE) == 5

    def test_unrelated_transactions_leave_lazy_deferred(self):
        m = machine()
        m.execute(TxBegin())
        self.lazy_store(m, BASE, 5)
        m.execute(TxEnd())
        m.execute(TxBegin())
        m.execute(Store(BASE + 64 * 1024, 1))
        m.execute(TxEnd())
        assert m.deferred_line_count() == 1

    def test_txid_exhaustion_forces_oldest(self):
        m = machine()
        m.execute(TxBegin())
        self.lazy_store(m, BASE, 5)
        m.execute(TxEnd())
        for _ in range(DEFAULT_CONFIG.num_tx_ids):  # the empty-txn idiom
            m.execute(TxBegin())
            m.execute(TxEnd())
        assert m.stats.txid_reclaims >= 1
        assert m.durable_read(BASE) == 5

    def test_forced_persist_walks_age_order(self):
        m = machine()
        for i in range(2):
            m.execute(TxBegin())
            self.lazy_store(m, BASE + i * 128, 10 + i)
            m.execute(TxEnd())
        # Forcing the *second* transaction's data must persist the first's.
        m.execute(TxBegin())
        m.execute(Store(BASE + 128 + 8, 1))
        assert m.durable_read(BASE) == 10
        assert m.durable_read(BASE + 128) == 11

    def test_lazy_logged_record_discarded_at_commit(self):
        m = machine()
        m.execute(TxBegin())
        m.execute(StoreT(BASE, 5, lazy=True, log_free=False))
        m.execute(TxEnd())
        assert m.stats.log_records_discarded_lazy == 1

    def test_stale_log_bits_cleared_when_lazy_txn_commits(self):
        """Regression: a lazy-logged line's records are discarded at
        commit, so its log bits must clear — the next transaction's
        plain store to the same word needs a fresh undo record."""
        m = machine()
        m.execute(TxBegin())
        m.execute(StoreT(BASE, 5, lazy=True, log_free=False))
        m.execute(TxEnd())
        created = m.stats.log_records_created
        m.execute(TxBegin())
        m.execute(Store(BASE, 6))  # forces the lazy persist, then logs
        assert m.stats.log_records_created == created + 1
        m.execute(TxEnd())
        assert m.durable_read(BASE) == 6


class TestAbort:
    def test_abort_rolls_back_cached_updates(self):
        m = machine()
        m.raw_write(BASE, 1)
        m.execute(TxBegin())
        m.execute(Store(BASE, 2))
        m.execute(Load(BASE))
        from repro.isa.instructions import TxAbort

        m.execute(TxAbort())
        assert m.raw_read(BASE) == 1
        assert m.durable_read(BASE) == 1
        assert m.stats.aborts == 1

    def test_abort_replays_persisted_undo_records(self):
        m = machine()
        m.raw_write(BASE, 1)
        m.execute(TxBegin())
        m.execute(Store(BASE, 2))
        m.execute(Fence())  # undo record + data reach PM mid-transaction
        assert m.durable_read(BASE) == 2
        from repro.isa.instructions import TxAbort

        m.execute(TxAbort())
        assert m.durable_read(BASE) == 1

    def test_abort_clears_log(self):
        m = machine()
        m.execute(TxBegin())
        m.execute(Store(BASE, 2))
        from repro.isa.instructions import TxAbort

        m.execute(TxAbort())
        assert m.log_buffer.is_empty()
        assert m.pm.log == []


class TestCrash:
    def test_crash_drops_volatile_state(self):
        m = machine()
        m.execute(TxBegin())
        m.execute(Store(BASE, 2))
        m.crash()
        assert m.l1.resident_count() == 0
        assert m.l2.resident_count() == 0
        assert m.log_buffer.is_empty()
        assert not m.in_transaction
        assert m.deferred_line_count() == 0

    def test_crash_preserves_pm(self):
        m = machine()
        m.run(ProgramBuilder().tx_begin().store(BASE, 42).tx_end().build())
        m.crash()
        assert m.durable_read(BASE) == 42

    def test_scheduled_crash_interrupts_run(self):
        m = machine()
        m.schedule_crash_after_persists(0)
        finished = m.run(ProgramBuilder().tx_begin().store(BASE, 42).tx_end().build())
        assert not finished
        assert m.durable_read(BASE) == 0

    def test_lazy_data_lost_on_crash(self):
        m = machine()
        m.execute(TxBegin())
        m.execute(StoreT(BASE, 5, lazy=True, log_free=True))
        m.execute(TxEnd())
        m.crash()
        assert m.durable_read(BASE) == 0  # recoverable-by-contract data


class TestEvictionWriteback:
    def test_commit_trace_follows_figure_4(self):
        m = machine()
        m.execute(TxBegin())
        m.execute(Store(BASE, 1))
        m.execute(StoreT(BASE + 64, 2, log_free=True))
        m.trace_persist_order = True  # trace the commit sequence only
        m.execute(TxEnd())
        from repro.core.ordering import LoggingMode, check_order

        assert m.persist_trace, "commit produced no durability events"
        check_order(LoggingMode.UNDO, m.persist_trace)

    def test_capacity_evictions_flush_log_records(self):
        m = machine()
        m.execute(TxBegin())
        # Touch far more lines than L2 can hold to force L2 evictions.
        lines = (m.l2.config.num_lines + m.l1.config.num_lines) * 2
        for i in range(lines):
            m.execute(Store(BASE + i * 64, i))
        assert m.stats.l2_evictions > 0
        assert m.stats.log_records_persisted > 0

    def test_mid_transaction_writeback_is_crash_consistent(self):
        m = machine()
        m.execute(TxBegin())
        lines = (m.l2.config.num_lines + m.l1.config.num_lines) * 2
        for i in range(lines):
            m.execute(Store(BASE + i * 64, i + 1))
        m.crash()
        # Some data reached PM mid-transaction; its undo records must be
        # durable, and the transaction must have no commit marker.
        log = m.pm.log  # decoded from the words once
        assert [e for e in log if e.kind == "commit"] == []
        undo_addrs = {e.addr for e in log if e.kind == "undo"}
        dirty = {
            a for a in range(BASE, BASE + lines * 64, 64) if m.pm.read_word(a) != 0
        }
        assert dirty, "expected some mid-transaction write-back"
        for addr in dirty:
            assert any(
                e.addr <= addr < e.addr + len(e.words) * 8
                for e in log
                if e.kind == "undo"
            ), f"written-back line {addr:#x} lacks a durable undo record"
        assert undo_addrs


class TestFinalize:
    def test_finalize_waits_for_wpq(self):
        m = machine()
        m.run(ProgramBuilder().tx_begin().store(BASE, 1).tx_end().build())
        before = m.now
        m.finalize()
        assert m.now >= before
        assert m.stats.cycles == m.now

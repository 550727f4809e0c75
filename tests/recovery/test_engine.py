"""Structural log replay (undo and redo) and application hooks."""

from repro.core.ordering import LoggingMode
from repro.mem import layout
from repro.mem.logregion import DurableLogEntry
from repro.mem.pm import PersistentMemory
from repro.recovery.engine import PmView, RecoveryReport, recover

BASE = layout.PM_HEAP_BASE


def entry(kind, tx, addr=BASE, words=()):
    return DurableLogEntry(kind, tx_seq=tx, addr=addr, words=tuple(words))


class TestUndoRecovery:
    def test_uncommitted_transaction_rolled_back(self):
        pm = PersistentMemory()
        pm.write_word(BASE, 200)  # mid-transaction write-back
        pm.log_append(entry("undo", 1, BASE, [100]))
        report = recover(pm)
        assert pm.read_word(BASE) == 100
        assert report.rolled_back_tx_seqs == [1]
        assert report.words_restored == 1

    def test_committed_transaction_untouched(self):
        pm = PersistentMemory()
        pm.write_word(BASE, 200)
        pm.log_append(entry("undo", 1, BASE, [100]))
        pm.log_append(entry("commit", 1))
        recover(pm)
        assert pm.read_word(BASE) == 200

    def test_multi_word_records(self):
        pm = PersistentMemory()
        pm.write_word(BASE, 9)
        pm.write_word(BASE + 8, 9)
        pm.log_append(entry("undo", 1, BASE, [1, 2]))
        recover(pm)
        assert pm.read_word(BASE) == 1
        assert pm.read_word(BASE + 8) == 2

    def test_duplicate_records_oldest_wins(self):
        # After an L1->L2->L1 round trip the same word can be logged
        # twice; reverse-order application must land on the earliest
        # pre-image (Section III-B1).
        pm = PersistentMemory()
        pm.write_word(BASE, 300)
        pm.log_append(entry("undo", 1, BASE, [100]))  # true pre-image
        pm.log_append(entry("undo", 1, BASE, [200]))  # later duplicate
        recover(pm)
        assert pm.read_word(BASE) == 100

    def test_multiple_interrupted_transactions(self):
        pm = PersistentMemory()
        pm.write_word(BASE, 5)
        pm.write_word(BASE + 64, 6)
        pm.log_append(entry("undo", 1, BASE, [1]))
        pm.log_append(entry("commit", 1))
        pm.log_append(entry("undo", 2, BASE + 64, [2]))
        report = recover(pm)
        assert pm.read_word(BASE) == 5  # committed: kept
        assert pm.read_word(BASE + 64) == 2  # interrupted: rolled back
        assert report.rolled_back_tx_seqs == [2]

    def test_log_cleared_after_recovery(self):
        pm = PersistentMemory()
        pm.log_append(entry("undo", 1, BASE, [0]))
        recover(pm)
        assert pm.log == []


class TestRedoRecovery:
    def test_committed_records_replayed(self):
        pm = PersistentMemory()
        pm.log_append(entry("redo", 1, BASE, [42]))
        pm.log_append(entry("commit", 1))
        report = recover(pm, mode=LoggingMode.REDO)
        assert pm.read_word(BASE) == 42
        assert report.replayed_tx_seqs == [1]

    def test_uncommitted_records_discarded(self):
        pm = PersistentMemory()
        pm.log_append(entry("redo", 1, BASE, [42]))
        recover(pm, mode=LoggingMode.REDO)
        assert pm.read_word(BASE) == 0

    def test_forward_order_newest_wins(self):
        pm = PersistentMemory()
        pm.log_append(entry("redo", 1, BASE, [1]))
        pm.log_append(entry("redo", 1, BASE, [2]))  # later store, final value
        pm.log_append(entry("commit", 1))
        recover(pm, mode=LoggingMode.REDO)
        assert pm.read_word(BASE) == 2


class RecordingHook:
    def __init__(self):
        self.ran = False

    def recover(self, view: PmView) -> None:
        self.ran = True
        view.write(BASE + 128, 7)


class TestHooks:
    def test_hooks_run_after_replay(self):
        pm = PersistentMemory()
        hook = RecordingHook()
        report = recover(pm, hooks=[hook])
        assert hook.ran
        assert report.hooks_run == 1
        assert pm.read_word(BASE + 128) == 7

    def test_view_reads_durable_state(self):
        pm = PersistentMemory()
        pm.write_word(BASE, 11)
        assert PmView(pm).read(BASE) == 11

    def test_report_defaults(self):
        report = RecoveryReport()
        assert report.mode is LoggingMode.UNDO
        assert report.words_restored == 0

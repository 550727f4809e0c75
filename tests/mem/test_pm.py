"""Persistent-memory backing store and durable log region."""

import pytest

from repro.common.errors import SimulationError
from repro.mem import layout
from repro.mem.logregion import DurableLogEntry
from repro.mem.pm import PersistentMemory

BASE = layout.PM_HEAP_BASE


class TestDataRegion:
    def test_uninitialised_reads_zero(self):
        assert PersistentMemory().read_word(BASE) == 0

    def test_write_then_read(self):
        pm = PersistentMemory()
        pm.write_word(BASE + 8, 42)
        assert pm.read_word(BASE + 8) == 42

    def test_unaligned_access_uses_word_base(self):
        pm = PersistentMemory()
        pm.write_word(BASE, 7)
        assert pm.read_word(BASE + 3) == 7

    def test_volatile_address_rejected(self):
        pm = PersistentMemory()
        with pytest.raises(SimulationError):
            pm.read_word(0x100)
        with pytest.raises(SimulationError):
            pm.write_word(0x100, 1)

    def test_line_roundtrip(self):
        pm = PersistentMemory()
        words = list(range(10, 18))
        pm.write_line(BASE, words)
        assert pm.read_line(BASE) == words

    def test_write_line_requires_full_line(self):
        with pytest.raises(SimulationError):
            PersistentMemory().write_line(BASE, [1, 2, 3])


class TestLogRegion:
    def test_append_and_filter(self):
        pm = PersistentMemory()
        pm.log_append(DurableLogEntry("undo", tx_seq=1, addr=BASE, words=(5,)))
        pm.log_append(DurableLogEntry("undo", tx_seq=2, addr=BASE + 8, words=(6,)))
        assert len(pm.log_entries_for(1)) == 1
        assert pm.log_entries_for(1)[0].words == (5,)

    def test_commit_markers(self):
        pm = PersistentMemory()
        pm.log_append(DurableLogEntry("commit", tx_seq=3))
        assert [e.tx_seq for e in pm.log if e.kind == "commit"] == [3]

    def test_discard_tx(self):
        pm = PersistentMemory()
        pm.log_append(DurableLogEntry("undo", tx_seq=1, addr=BASE, words=(5,)))
        pm.log_append(DurableLogEntry("commit", tx_seq=1))
        pm.log_discard_tx(1)
        assert pm.log == []

    def test_bad_kind_rejected(self):
        with pytest.raises(SimulationError):
            DurableLogEntry("bogus", tx_seq=1)

    def test_out_of_range_log_word_rejected(self):
        pm = PersistentMemory()
        addr = layout.PM_LOG_BASE + 8
        for value in (1 << 64, -1):
            with pytest.raises(SimulationError, match=f"{addr:#x}"):
                pm.write_word(addr, value)
        assert pm.read_word(addr) == 0
        pm.write_word(addr, (1 << 64) - 1)
        assert pm.read_word(addr) == (1 << 64) - 1


class TestSnapshot:
    def test_snapshot_is_deep(self):
        pm = PersistentMemory()
        pm.write_word(BASE, 1)
        snap = pm.snapshot()
        pm.write_word(BASE, 2)
        pm.log_append(DurableLogEntry("commit", tx_seq=1))
        assert snap.read_word(BASE) == 1
        assert snap.log == []

    def test_words_equal(self):
        pm = PersistentMemory()
        pm.write_word(BASE, 1)
        snap = pm.snapshot()
        assert pm.words_equal(snap, [BASE, BASE + 8])
        pm.write_word(BASE + 8, 9)
        assert not pm.words_equal(snap, [BASE + 8])


class TestDroppedDrainsKeepBothLogFormsInStep:
    """Reverting durability groups rewinds only the words: a committed
    transaction's records were pruned from the live index at commit, and
    dropping the group that holds its commit marker un-commits it on
    media alone.  So a revert must invalidate the index, and recovery of
    the dropped image must equal recovery from its bytes."""

    def test_structural_recovery_equals_byte_recovery(self):
        from repro.fuzz.campaign import FuzzCell
        from repro.fuzz.kernel import Probe, clean_run, family_of, shared_knobs
        from repro.recovery.engine import recover

        cell = FuzzCell("rbtree", "SLPMT", "manual")
        family = family_of(cell)
        knobs = shared_knobs(cell, seed=7, num_ops=6)
        events = clean_run(cell, seed=7, **knobs).events
        run = family.build(cell, 7, knobs)
        mode = run.machine.scheme.logging_mode

        def data(pm):
            # The heap's words: the log region has its own store.
            return {a: v for a, v in pm._words.items() if v}

        mismatches = []

        def capture(point):
            for count in (1, 2, 3):
                structural = run.machine.pm.snapshot()
                assert structural._indexed
                if structural.drop_last_drains(count):
                    assert not structural._indexed
                serialized = structural.snapshot()
                serialized._indexed = False
                recover(structural, mode=mode)
                recover(serialized, mode=mode)
                if data(structural) != data(serialized):
                    mismatches.append((point, count))

        run.machine.pm.arm_journal()
        run.machine.probe_persists(Probe(range(events), capture))
        family.execute(run)
        assert events > 0
        assert mismatches == []

"""Hardened recovery: strict/salvage policies, dispositions, idempotence."""

import pytest

from repro.common.errors import (
    LogChecksumError,
    SimulationError,
    TornLogError,
)
from repro.core.ordering import LoggingMode
from repro.mem import layout
from repro.mem.logregion import DurableLogEntry, wire_words
from repro.mem.pm import PersistentMemory
from repro.recovery.engine import PmView, recover

A = layout.PM_HEAP_BASE
B = layout.PM_HEAP_BASE + 64


def undo_image():
    """Durable image: tx 1 committed (A: 5 -> 10), tx 2 interrupted
    (B: 7 -> 20, undo record durable, no marker)."""
    pm = PersistentMemory()
    pm.append_clean(DurableLogEntry("undo", 1, addr=A, words=(5,)))
    pm.write_word(A, 10)
    pm.append_clean(DurableLogEntry("commit", 1))
    pm.append_clean(DurableLogEntry("undo", 2, addr=B, words=(7,)))
    pm.write_word(B, 20)
    return pm


class TestCleanRecovery:
    @pytest.mark.parametrize("from_bytes", [False, True])
    def test_undo_rolls_back_interrupted_tx(self, from_bytes):
        pm = undo_image()
        pm._indexed = not from_bytes  # pristine: either reader is valid
        report = recover(pm, mode=LoggingMode.UNDO)
        assert pm.read_word(A) == 10  # committed result survives
        assert pm.read_word(B) == 7  # interrupted tx rolled back
        assert report.rolled_back_tx_seqs == [2]
        assert report.words_restored == 1
        assert report.dispositions == {1: "committed", 2: "rolled-back"}
        assert not report.damaged

    def test_redo_replays_committed_discards_rest(self):
        pm = PersistentMemory()
        pm.append_clean(DurableLogEntry("redo", 1, addr=A, words=(42,)))
        pm.append_clean(DurableLogEntry("commit", 1))
        pm.append_clean(DurableLogEntry("redo", 2, addr=B, words=(99,)))
        pm._indexed = False  # replay the serialized words
        report = recover(pm, mode=LoggingMode.REDO)
        assert pm.read_word(A) == 42
        assert pm.read_word(B) == 0  # uncommitted never applied
        assert report.replayed_tx_seqs == [1]
        assert report.dispositions == {1: "replayed", 2: "discarded"}

    def test_full_cut_tear_is_replayed(self):
        # The append completed on media but the crash beat the live
        # index: only the bytes hold A's pre-image.
        pm = PersistentMemory()
        pm.write_word(A, 99)
        entry = DurableLogEntry("undo", 5, addr=A, words=(7,))
        pm.serialize_partial(entry, wire_words(entry.kind, len(entry.words)))
        report = recover(pm, mode=LoggingMode.UNDO)
        assert pm.read_word(A) == 7
        assert report.rolled_back_tx_seqs == [5]

    def test_log_fully_cleared_after_success(self):
        pm = undo_image()
        recover(pm, mode=LoggingMode.UNDO)
        assert pm.log == []
        assert pm.parse_byte_log_tolerant().entries == []
        # The region is back to pristine: no word left at all.
        assert pm.read_word(layout.PM_LOG_BASE) == 0
        assert pm.parse_byte_log_tolerant().clean

    def test_unknown_policy_rejected(self):
        with pytest.raises(SimulationError):
            recover(PersistentMemory(), policy="lenient")


class TestStrictPolicy:
    @pytest.mark.parametrize("on_snapshot", [False, True])
    def test_torn_tail_raises_typed_error_with_offset(self, on_snapshot):
        # on_snapshot: the campaigns' strict probe recovers a snapshot,
        # which must carry the invalidated index.
        pm = undo_image()
        offset = pm.serialize_partial(
            DurableLogEntry("undo", 3, addr=A + 128, words=(1,)), 1
        )
        if on_snapshot:
            pm = pm.snapshot()
        with pytest.raises(TornLogError) as exc:
            recover(pm, mode=LoggingMode.UNDO, policy="strict")
        assert exc.value.offset == offset

    def test_corrupt_entry_raises_checksum_error(self):
        # Flip a bit in a mid-stream entry: a corrupt *final* entry is
        # indistinguishable from a torn tail (nothing valid follows), but
        # mid-stream damage must be a checksum failure.
        pm = undo_image()
        pm.flip_serialized_bit(0, 2, 5)  # tx 1's undo payload
        with pytest.raises(LogChecksumError) as exc:
            recover(pm, mode=LoggingMode.UNDO, policy="strict")
        assert exc.value.offset == pm.extent(0).start

    def test_strict_raise_mutates_nothing(self):
        pm = undo_image()
        pm.serialize_partial(DurableLogEntry("undo", 3, addr=A, words=(1,)), 1)
        before = pm.snapshot()
        with pytest.raises(TornLogError):
            recover(pm, mode=LoggingMode.UNDO, policy="strict")
        # The caller can retry in salvage mode on the intact image.
        assert pm.words_equal(before, [A, B])
        assert pm.log == before.log
        assert len(pm.log_damage) == 1


class TestSalvagePolicy:
    def test_torn_marker_salvages_by_rollback(self):
        # Tx 2's commit marker tears mid-append: the transaction is
        # unresolved and must be rolled back from its surviving records.
        pm = undo_image()
        pm.serialize_partial(DurableLogEntry("commit", 2), 1)
        report = recover(pm, mode=LoggingMode.UNDO, policy="salvage")
        assert pm.read_word(B) == 7
        assert report.torn_entries == 1
        assert report.damaged
        assert report.dispositions[2] == "salvaged-rolled-back"
        assert report.salvaged_tx_seqs == [2]

    def test_corrupt_record_of_resolved_tx_is_inert(self):
        pm = undo_image()
        pm.flip_serialized_bit(0, 2, 3)  # tx 1's undo record; tx 1 committed
        report = recover(pm, mode=LoggingMode.UNDO, policy="salvage")
        assert pm.read_word(A) == 10  # never rolled back
        assert report.corrupt_entries == 1
        assert report.dispositions[1] == "inert-damage"
        # Nothing needed salvaging: the damaged records were dead weight.
        assert report.salvaged_tx_seqs == []

    def test_salvage_still_handles_undamaged_txs(self):
        pm = undo_image()
        pm.serialize_partial(DurableLogEntry("undo", 3, addr=A + 128,
                                             words=(1,)), 1)
        report = recover(pm, mode=LoggingMode.UNDO, policy="salvage")
        assert pm.read_word(B) == 7  # tx 2 rollback unaffected by the tear
        assert report.rolled_back_tx_seqs == [2]


class TestIdempotence:
    @pytest.mark.parametrize("policy", ["strict", "salvage"])
    def test_double_recover_equals_single(self, policy):
        pm = undo_image()
        recover(pm, mode=LoggingMode.UNDO, policy=policy)
        once = pm.snapshot()
        second = recover(pm, mode=LoggingMode.UNDO, policy=policy)
        assert second.words_restored == 0
        assert second.rolled_back_tx_seqs == []
        assert second.dispositions == {}
        assert pm.words_equal(once, [A, B])
        assert pm.log == [] and pm.parse_byte_log_tolerant().entries == []

    def test_hook_failure_leaves_log_intact_for_rerun(self):
        class BadHook:
            def recover(self, view):
                raise RuntimeError("application recovery failed")

        class GoodHook:
            def __init__(self):
                self.ran = 0

            def recover(self, view):
                assert isinstance(view, PmView)
                self.ran += 1

        pm = undo_image()
        with pytest.raises(RuntimeError):
            recover(pm, mode=LoggingMode.UNDO, hooks=[BadHook()])
        # The log was NOT cleared behind the failure: a re-run still has
        # everything it needs and converges to the same durable state.
        assert pm.log != []
        assert pm.parse_byte_log_tolerant().entries != []
        good = GoodHook()
        report = recover(pm, mode=LoggingMode.UNDO, hooks=[good])
        assert good.ran == 1
        assert report.hooks_run == 1
        assert pm.read_word(B) == 7
        assert pm.log == []


class TestByteStructuralEquivalence:
    def test_both_paths_same_durable_state_and_damage(self):
        # A tear invalidates the live index: the image and a shell that
        # loaded it both recover from the bytes.
        pm = undo_image()
        pm.serialize_partial(DurableLogEntry("commit", 2), 1)
        shell = PersistentMemory()
        shell.load(pm)
        for image in (shell, pm):
            assert image.parsed_log() == image.parse_byte_log_tolerant()
            report = recover(image, mode=LoggingMode.UNDO, policy="salvage")
            assert image.read_word(A) == 10
            assert image.read_word(B) == 7
            assert report.torn_entries == 1


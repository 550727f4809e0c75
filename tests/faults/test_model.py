"""FaultModel mechanics: tears, flips and dropped drains on a bare PM."""

import pytest

from repro.common.errors import PowerFailure, SimulationError
from repro.faults import BitFlip, DropDrains, FaultModel, TornAppend
from repro.faults.model import tear_points
from repro.mem import layout
from repro.mem.logregion import DurableLogEntry
from repro.mem.pm import PersistentMemory

BASE = layout.PM_HEAP_BASE


def undo_entry(tx_seq=1, addr=BASE, words=(5, 6)):
    return DurableLogEntry(kind="undo", tx_seq=tx_seq, addr=addr, words=words)


def wire_len(entry):
    """Serialized word count of *entry* (via a scratch PM)."""
    pm = PersistentMemory()
    pm.append_clean(entry)
    return pm.extent(0).nwords


class TestTearPoints:
    def test_enumerates_every_word_boundary_cut(self):
        points = tear_points([4, 2])
        assert points == [
            (0, 0), (0, 1), (0, 2), (0, 3), (0, 4),
            (1, 0), (1, 1), (1, 2),
        ]

    def test_includes_zero_and_full_cut(self):
        points = tear_points([3])
        assert (0, 0) in points and (0, 3) in points

    def test_rejects_empty_append(self):
        with pytest.raises(SimulationError):
            tear_points([4, 0])


class TestTornAppend:
    def test_partial_cut_tears_and_crashes(self):
        pm = PersistentMemory()
        pm.fault_model = FaultModel(TornAppend(0, 2))
        with pytest.raises(PowerFailure):
            pm.log_append(undo_entry())
        assert pm.fault_model.fired
        # The entry never reached the structural list; the ledger and the
        # byte stream agree the tail is damaged.
        assert pm.log == []
        assert len(pm.log_damage) == 1
        assert pm.log_damage[0].reason == "torn"
        assert not pm.parse_byte_log_tolerant().clean

    def test_zero_cut_is_a_clean_shorter_stream(self):
        pm = PersistentMemory()
        pm.fault_model = FaultModel(TornAppend(0, 0))
        with pytest.raises(PowerFailure):
            pm.log_append(undo_entry())
        assert pm.log == []
        assert pm.log_damage == []
        assert pm.parse_byte_log_tolerant().clean

    def test_full_cut_is_the_no_damage_control(self):
        entry = undo_entry()
        full = wire_len(entry)
        pm = PersistentMemory()
        pm.fault_model = FaultModel(TornAppend(0, full))
        with pytest.raises(PowerFailure):
            pm.log_append(entry)
        # Complete on media (the byte parse sees it) even though the
        # crash beat the structural bookkeeping; recovery reads the
        # bytes, so it replays the entry.
        assert pm.log == []
        assert pm.log_damage == []
        parsed = pm.parse_byte_log_tolerant()
        assert parsed.clean
        assert parsed.entries == [entry]
        assert pm.parsed_log() == parsed

    def test_every_cut_invalidates_the_index(self):
        # Cut 0 and the full cut included: recovery reads the bytes.
        entry = undo_entry()
        for cut in range(wire_len(entry) + 1):
            pm = PersistentMemory()
            pm.append_clean(undo_entry(tx_seq=2))
            pm.serialize_partial(entry, cut)
            assert not pm._indexed, cut

    def test_fires_only_at_its_append_index(self):
        pm = PersistentMemory()
        pm.fault_model = FaultModel(TornAppend(5, 0))
        pm.log_append(undo_entry())
        assert not pm.fault_model.fired
        assert len(pm.log) == 1
        assert pm.log_appends == 1


class TestBitFlip:
    def test_flip_corrupts_then_crashes(self):
        pm = PersistentMemory()
        pm.fault_model = FaultModel(BitFlip(0, 1, 7))
        with pytest.raises(PowerFailure):
            pm.log_append(undo_entry())
        assert pm.fault_model.fired
        # The ledger and the checksums agree, and recovery reads the
        # checksums, not the live index the flip left behind.
        assert len(pm.log_damage) == 1
        assert pm.log_damage[0].reason == "checksum"
        parsed = pm.parse_byte_log_tolerant()
        assert not parsed.clean
        assert pm.parsed_log() == parsed

    def test_every_single_bit_flip_is_detected(self):
        entry = undo_entry()
        full = wire_len(entry)
        for word in range(full):
            for bit in (0, 13, 63):
                pm = PersistentMemory()
                pm.fault_model = FaultModel(BitFlip(0, word, bit))
                with pytest.raises(PowerFailure):
                    pm.log_append(entry)
                assert not pm.parse_byte_log_tolerant().clean, (
                    f"flip of word {word} bit {bit} escaped the parse"
                )

    def test_choose_flip_is_deterministic_and_in_bounds(self):
        lengths = [4, 7, 2]
        a = FaultModel(seed=11).choose_flip(lengths, case=3)
        b = FaultModel(seed=11).choose_flip(lengths, case=3)
        assert a == b
        assert 0 <= a.append_index < len(lengths)
        assert 0 <= a.word < lengths[a.append_index]
        assert 0 <= a.bit < 64

    def test_choose_flip_empty_layout(self):
        assert FaultModel(seed=1).choose_flip([], case=0) is None


class TestDropDrains:
    def test_reverts_last_durability_groups(self):
        pm = PersistentMemory()
        pm.write_word(BASE, 1)
        pm.arm_journal()
        pm.write_word(BASE, 2)
        pm.note_durability_event()
        pm.write_word(BASE + 8, 3)
        pm.note_durability_event()
        assert pm.journal_groups() == 2

        model = FaultModel(DropDrains(1))
        assert model.apply_post_crash(pm) == 1
        assert model.fired
        # Only the last drain vanished.
        assert pm.read_word(BASE) == 2
        assert pm.read_word(BASE + 8) == 0

    def test_drop_rewinds_appends_too(self):
        pm = PersistentMemory()
        pm.arm_journal()
        pm.append_clean(undo_entry(tx_seq=1))
        pm.note_durability_event()
        pm.append_clean(undo_entry(tx_seq=2, addr=BASE + 64))
        pm.note_durability_event()
        pm.drop_last_drains(1)
        # The revert rewinds the words, not the live index: it
        # invalidates the index, and recovery reads the rewound bytes.
        parsed = pm.parse_byte_log_tolerant()
        assert parsed.clean
        assert [e.tx_seq for e in parsed.entries] == [1]
        assert pm.parsed_log() == parsed

    def test_only_a_reverting_drop_invalidates(self):
        pm = PersistentMemory()
        pm.arm_journal()
        assert pm.drop_last_drains(1) == 0
        assert pm._indexed
        pm.append_clean(undo_entry())
        pm.note_durability_event()
        assert pm.drop_last_drains(1) == 1
        assert not pm._indexed

    def test_drop_more_than_journaled(self):
        pm = PersistentMemory()
        pm.arm_journal()
        pm.write_word(BASE, 1)
        pm.note_durability_event()
        assert pm.drop_last_drains(5) == 1
        assert pm.read_word(BASE) == 0

    def test_unarmed_journal_refuses(self):
        pm = PersistentMemory()
        with pytest.raises(SimulationError):
            pm.drop_last_drains(1)


class TestLedgerStreamLockstep:
    def test_tear_then_reset_clears_both_views(self):
        pm = PersistentMemory()
        pm.append_clean(undo_entry(tx_seq=1))
        pm.serialize_partial(undo_entry(tx_seq=2), 1)
        assert pm.log_damage
        assert not pm.snapshot()._indexed
        pm.log_reset()
        assert pm._indexed
        assert pm.log == [] and pm.log_damage == []
        parsed = pm.parse_byte_log_tolerant()
        assert parsed.clean and parsed.entries == []
        assert pm.parsed_log() == parsed

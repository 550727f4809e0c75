"""Strict/salvage recovery over cross-shard 2PC protocol records.

The decision records (``decide-commit`` / ``decide-abort``) are the
only durable evidence a global transaction resolved; a torn or corrupt
one must never be silently trusted.  These tests cut a decision record
at **every** interior word boundary and flip a bit in its CRC word,
then check both policies: strict raises the typed error before mutating
anything, salvage quarantines the damaged record (it is absent from
``report.twopc_entries``) while disclosing the damage.
"""

import pytest

from repro.common.errors import LogChecksumError, TornLogError
from repro.core.ordering import LoggingMode
from repro.mem import layout, logregion
from repro.mem.logregion import DurableLogEntry
from repro.mem.pm import PersistentMemory
from repro.recovery.engine import recover
from repro.shard.twopc import GTX_BASE

A = layout.PM_HEAP_BASE
GTX = GTX_BASE + 1


def decision(kind="decide-commit", shard_ids=(0, 1)):
    """A coordinator decision record: addr is the deciding node's id,
    the payload the participant shard ids."""
    return DurableLogEntry(kind, GTX, addr=2, words=tuple(shard_ids))


def protocol_image():
    """A participant's log mid-protocol: one committed local tx, then
    the gtx's prepare records + prepared marker, then the decision."""
    pm = PersistentMemory()
    pm.append_clean(DurableLogEntry("undo", 1, addr=A, words=(5,)))
    pm.write_word(A, 10)
    pm.append_clean(DurableLogEntry("commit", 1))
    pm.append_clean(DurableLogEntry("prepare", GTX, addr=7, words=(99,)))
    pm.append_clean(DurableLogEntry("prepared", GTX, addr=0))
    pm.append_clean(decision())
    return pm


class TestCleanProtocolRecords:
    @pytest.mark.parametrize("from_bytes", [False, True])
    @pytest.mark.parametrize("policy", ["strict", "salvage"])
    def test_twopc_records_survive_into_report(self, policy, from_bytes):
        pm = protocol_image()
        pm._indexed = not from_bytes  # pristine: either reader is valid
        report = recover(pm, mode=LoggingMode.UNDO, policy=policy)
        kinds = [e.kind for e in report.twopc_entries]
        assert kinds == ["prepare", "prepared", "decide-commit"]
        assert all(e.tx_seq == GTX for e in report.twopc_entries)
        assert not report.damaged
        # Protocol records are inert for local replay: the committed
        # local tx keeps its result, nothing of the gtx touched data.
        assert pm.read_word(A) == 10
        assert report.dispositions[1] == "committed"
        # The log region is spent; the records live on in the report.
        assert pm.log == [] and pm.parse_byte_log_tolerant().entries == []

    def test_decision_record_roundtrips_the_wire_format(self):
        entry = decision(shard_ids=(0, 1, 2, 3))
        words = logregion.encode_entry(entry)
        assert len(words) == logregion.wire_words(entry.kind, len(entry.words))
        pm = PersistentMemory()
        pm.append_clean(entry)
        parsed = pm.parse_byte_log_tolerant()
        assert parsed.clean
        [back] = parsed.entries
        assert back.kind == "decide-commit"
        assert back.tx_seq == GTX
        assert back.words == (0, 1, 2, 3)


def _interior_cuts(entry):
    """Every interior word boundary of *entry*'s wire image (a cut at 0
    leaves no trace, a cut at nwords is a complete append)."""
    return range(1, logregion.wire_words(entry.kind, len(entry.words)))


class TestTornDecisionRecord:
    @pytest.mark.parametrize("kind", ["decide-commit", "decide-abort"])
    def test_strict_raises_at_every_word_boundary(self, kind):
        for cut in _interior_cuts(decision(kind)):
            pm = protocol_image()
            offset = pm.serialize_partial(decision(kind), cut)
            with pytest.raises(TornLogError) as exc:
                recover(pm, mode=LoggingMode.UNDO, policy="strict")
            assert exc.value.offset == offset, f"cut at word {cut}"

    def test_strict_raise_mutates_nothing(self):
        pm = protocol_image()
        pm.serialize_partial(decision(), 1)
        before = pm.snapshot()
        with pytest.raises(TornLogError):
            recover(pm, mode=LoggingMode.UNDO, policy="strict")
        assert pm.words_equal(before, [A])
        assert pm.log == before.log

    @pytest.mark.parametrize("via_load", [False, True])
    def test_salvage_quarantines_torn_decision(self, via_load):
        # via_load: a shell that loaded the torn image, as campaign
        # shells do, must read its bytes too.
        for cut in _interior_cuts(decision()):
            pm = protocol_image()
            pm.serialize_partial(decision("decide-abort", (0, 1)), cut)
            if via_load:
                image, pm = pm, PersistentMemory()
                pm.load(image)
            report = recover(pm, mode=LoggingMode.UNDO, policy="salvage")
            # The torn decision must NOT surface as a trustworthy
            # protocol record; the intact ones all survive.
            kinds = [e.kind for e in report.twopc_entries]
            assert kinds == ["prepare", "prepared", "decide-commit"]
            assert report.torn_entries == 1
            assert report.damaged
            # Local recovery is unaffected by the protocol-tail tear.
            assert pm.read_word(A) == 10
            assert report.dispositions[1] == "committed"

    def test_torn_prepare_record_is_quarantined_too(self):
        pm = PersistentMemory()
        pm.append_clean(DurableLogEntry("prepared", GTX, addr=0))
        pm.serialize_partial(
            DurableLogEntry("prepare", GTX, addr=7, words=(99,)), 2
        )
        report = recover(pm, mode=LoggingMode.UNDO, policy="salvage")
        assert [e.kind for e in report.twopc_entries] == ["prepared"]
        assert report.torn_entries == 1


class TestCorruptDecisionRecord:
    def _image(self):
        """The protocol image plus a trailing clean marker: a corrupt
        *final* entry is indistinguishable from a torn tail, so the
        flipped decision record must sit mid-stream to be classified as
        a checksum failure."""
        pm = protocol_image()
        pm.append_clean(DurableLogEntry("commit", 2))
        return pm

    def _flip_crc(self, pm, append_index):
        """Flip one bit in the entry's trailing CRC word."""
        extent = pm.extent(append_index)
        return pm.flip_serialized_bit(append_index, extent.nwords - 1, 17)

    @pytest.mark.parametrize("policy", ["strict", "salvage"])
    def test_bit_flip_in_crc_word(self, policy):
        pm = self._image()
        offset = pm.extent(4).start  # the decision record's extent
        self._flip_crc(pm, 4)
        if policy == "strict":
            with pytest.raises(LogChecksumError) as exc:
                recover(pm, mode=LoggingMode.UNDO, policy="strict")
            assert exc.value.offset == offset
        else:
            report = recover(pm, mode=LoggingMode.UNDO, policy="salvage")
            kinds = [e.kind for e in report.twopc_entries]
            assert kinds == ["prepare", "prepared"]  # decision dropped
            assert report.corrupt_entries == 1
            assert report.damaged
            assert pm.read_word(A) == 10

    def test_structural_and_byte_paths_agree_on_damage(self):
        # The flip invalidates the live index, which still holds the
        # decision: recovery's log is the byte parse, on the image and
        # on its snapshot alike.
        pm = self._image()
        self._flip_crc(pm, 4)
        assert pm.log[4].kind == "decide-commit"
        for image in (pm.snapshot(), pm):
            assert image.parsed_log() == image.parse_byte_log_tolerant()
            report = recover(image, mode=LoggingMode.UNDO, policy="salvage")
            assert report.corrupt_entries == 1
            assert [e.kind for e in report.twopc_entries] == [
                "prepare", "prepared",
            ]

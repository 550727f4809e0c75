"""Byte-accurate log-region codec and parse-from-PM recovery."""

import random

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.common.errors import LogChecksumError, SimulationError, TornLogError
from repro.mem import layout
from repro.mem.logregion import (
    HEADER_WORDS,
    KIND_TAGS,
    DurableLogEntry,
    decode_region,
    encode_entry,
    entry_checksum,
    stream_header_words,
    wire_words,
)
from repro.mem.pm import PersistentMemory
from repro.recovery.engine import recover

BASE = layout.PM_HEAP_BASE


def decode_words(words):
    """Decode a hand-assembled word list as a log stream."""
    return decode_region(stream_header_words() + words)


def entry_strategy():
    payload = st.builds(
        DurableLogEntry,
        kind=st.sampled_from(["undo", "redo"]),
        tx_seq=st.integers(min_value=0, max_value=(1 << 50)),
        addr=st.integers(min_value=0, max_value=1 << 40).map(lambda a: a & ~7),
        words=st.lists(
            st.integers(min_value=0, max_value=(1 << 64) - 1), min_size=1, max_size=8
        ).map(tuple),
    )
    marker = st.builds(
        DurableLogEntry,
        kind=st.sampled_from(["commit", "abort"]),
        tx_seq=st.integers(min_value=0, max_value=(1 << 50)),
    )
    return st.one_of(payload, marker)


class TestCodec:
    @given(entries=st.lists(entry_strategy(), max_size=30))
    @settings(max_examples=50, deadline=None)
    def test_roundtrip(self, entries):
        words = []
        for e in entries:
            words.extend(encode_entry(e))
        parsed = decode_words(words)
        assert parsed.clean
        assert parsed.entries == entries

    def test_wire_sizes(self):
        # Every entry ends with one checksum word.
        assert wire_words("commit", 0) == 2
        assert wire_words("undo", 2) == 5
        assert len(encode_entry(DurableLogEntry("commit", 1))) == 2
        assert len(encode_entry(DurableLogEntry("undo", 1, BASE, (1, 2)))) == 5

    def test_oversize_payload_rejected(self):
        with pytest.raises(SimulationError):
            encode_entry(DurableLogEntry("undo", 1, BASE, tuple(range(9))))

    def test_corrupt_header_detected(self):
        parsed = decode_words([0xF])
        assert parsed.entries == []
        assert [(d.offset, d.reason) for d in parsed.damaged] == [
            (layout.PM_LOG_BASE + HEADER_WORDS * 8, "header")
        ]

    def test_terminator_stops_parse(self):
        words = encode_entry(DurableLogEntry("commit", 7)) + [0] + encode_entry(
            DurableLogEntry("commit", 9)
        )
        parsed = decode_words(words)
        assert parsed.clean
        assert [e.tx_seq for e in parsed.entries] == [7]


class TestChecksums:
    """v1 per-entry checksums: every single-word corruption is caught."""

    ENTRIES = [
        DurableLogEntry("undo", 5, BASE, (11, 22, 33)),
        DurableLogEntry("redo", 6, BASE + 64, (7,)),
        DurableLogEntry("commit", 5),
        DurableLogEntry("abort", 6),
    ]

    def test_checksum_word_never_zero(self):
        # 2**32 candidate CRCs; spot-check the fold's structure instead:
        # low and high halves are complements, so both can't be zero.
        for words in ([0], [1, 2, 3], [0xFFFF_FFFF_FFFF_FFFF]):
            c = entry_checksum(words)
            assert c != 0
            assert (c & 0xFFFF_FFFF) ^ (c >> 32) == 0xFFFF_FFFF

    @pytest.mark.parametrize("entry", ENTRIES, ids=lambda e: e.kind)
    def test_roundtrip_per_kind(self, entry):
        parsed = decode_words(encode_entry(entry))
        assert parsed.clean
        assert parsed.entries == [entry]

    @pytest.mark.parametrize("entry", ENTRIES, ids=lambda e: e.kind)
    def test_corrupt_any_word_detected(self, entry):
        wire = encode_entry(entry)
        for word in range(len(wire)):
            for bit in (0, 13, 63):
                damaged = list(wire)
                damaged[word] ^= 1 << bit
                parsed = decode_words(damaged)
                assert entry not in parsed.entries
                assert not parsed.clean, (word, bit)

    def test_corrupt_mid_stream_entry_is_skipped_not_fatal(self):
        a, b, c = self.ENTRIES[:3]
        words = encode_entry(a) + encode_entry(b) + encode_entry(c)
        # Flip a payload bit of the middle entry: framing survives, so
        # the outer entries still decode and the damage is classified.
        damaged = list(words)
        damaged[len(encode_entry(a)) + 2] ^= 1 << 17
        parsed = decode_words(damaged)
        assert parsed.entries == [a, c]
        assert [d.reason for d in parsed.damaged] == ["checksum"]
        assert parsed.torn_tail is None

    def test_corrupt_final_entry_is_torn_tail(self):
        words = encode_entry(self.ENTRIES[0])
        damaged = list(words)
        damaged[-1] ^= 1  # break the checksum of the only entry
        parsed = decode_words(damaged)
        assert parsed.entries == []
        assert parsed.torn_tail is not None
        assert parsed.torn_tail.reason == "torn"

    def test_strict_decode_reports_offset(self):
        # Strict recovery of media holding the damaged stream raises at
        # the damaged entry's header.
        a, b = self.ENTRIES[:2]
        words = stream_header_words() + encode_entry(a) + encode_entry(b)
        words += encode_entry(a)
        damaged = list(words)
        offset = (len(stream_header_words()) + len(encode_entry(a))) * 8
        damaged[offset // 8 + 1] ^= 1 << 40
        pm = PersistentMemory()
        for i, word in enumerate(damaged):
            pm.write_word(layout.PM_LOG_BASE + i * 8, word)
        pm._indexed = False  # hand-written words: read them, not the index
        with pytest.raises(LogChecksumError) as err:
            recover(pm, policy="strict")
        assert err.value.offset == layout.PM_LOG_BASE + offset


class TestLegacyV0:
    """No v0 (headerless) stream is decoded any more: a region opens
    with the v1 header, or its base word is zero (an empty log), or the
    region is damaged at its base."""

    # A headerless stream: undo tx_seq=3 addr=BASE payload=(42,), then
    # commit tx_seq=3.
    V0_WORDS = [
        1 | (1 << 4) | (3 << 12), BASE, 42,  # undo header, addr, payload
        3 | (3 << 12),  # commit marker
    ]

    def test_zero_base_word_is_an_empty_log(self):
        pm = PersistentMemory()
        parsed = pm.parse_byte_log_tolerant()
        assert parsed.clean and parsed.entries == []
        # Words past a zero base are never reached.
        pm.write_word(layout.PM_LOG_BASE + 16, 3 | (3 << 12))
        parsed = pm.parse_byte_log_tolerant()
        assert parsed.clean and parsed.entries == []

    def test_non_magic_base_word_is_damage(self):
        pm = PersistentMemory()
        for i, word in enumerate(self.V0_WORDS):
            pm.write_word(layout.PM_LOG_BASE + i * 8, word)
        parsed = pm.parse_byte_log_tolerant()
        assert parsed.entries == []
        assert [(d.offset, d.reason) for d in parsed.damaged] == [
            (layout.PM_LOG_BASE, "header")
        ]

    def test_v1_stream_header_pinned(self):
        assert stream_header_words() == [
            int.from_bytes(b"SLPMTLOG", "little"),
            1,
        ]


class TestWordSoup:
    """The tolerant decoder must never raise, whatever the media holds."""

    @given(
        words=st.lists(
            st.integers(min_value=0, max_value=(1 << 64) - 1), max_size=64
        ),
    )
    @settings(max_examples=200, deadline=None)
    def test_tolerant_never_raises(self, words):
        parsed = decode_words(words)
        # Whatever decoded must re-encode to legal wire entries.
        for entry in parsed.entries:
            assert entry.kind in KIND_TAGS

    def test_seeded_soup_strict_raises_typed_only(self):
        # Strict recovery of soup behind a valid stream header raises
        # only the typed damage errors, at offsets inside the region.
        rng = random.Random("word-soup")
        for _ in range(300):
            words = [rng.getrandbits(64) for _ in range(rng.randrange(32))]
            pm = PersistentMemory()
            for i, word in enumerate(stream_header_words() + words):
                pm.write_word(layout.PM_LOG_BASE + i * 8, word)
            pm._indexed = False
            try:
                recover(pm, policy="strict")
            except (TornLogError, LogChecksumError) as err:
                assert err.offset >= layout.PM_LOG_BASE


class TestPmIntegration:
    def test_append_serializes(self):
        pm = PersistentMemory()
        entry = DurableLogEntry("undo", 3, BASE, (42,))
        pm.log_append(entry)
        parsed = pm.parse_byte_log_tolerant()
        assert parsed.clean
        assert parsed.entries == [entry]

    def test_pruned_entries_survive_in_bytes(self):
        pm = PersistentMemory()
        pm.log_append(DurableLogEntry("undo", 3, BASE, (42,)))
        pm.log_append(DurableLogEntry("commit", 3))
        pm.log_discard_tx(3)
        assert pm.log == []
        parsed = pm.parse_byte_log_tolerant()
        assert parsed.clean
        assert len(parsed.entries) == 2
        assert PersistentMemory.resolved_tx_seqs(parsed.entries) == {3}


class TestByteRecoveryEquivalence:
    """Recovery from raw PM words equals recovery from the live index
    (pristine media: each test clears the index flag by hand to make
    recovery read the words)."""

    def _crashed_machine(self, crash_point, abort_first=False):
        from repro.core.machine import Machine
        from repro.core.schemes import SLPMT
        from repro.isa.instructions import Store, TxAbort, TxBegin, TxEnd

        m = Machine(SLPMT)
        m.raw_write(BASE, 10)
        m.raw_write(BASE + 64, 20)
        if abort_first:
            m.execute(TxBegin())
            m.execute(Store(BASE, 99))
            m.execute(TxAbort())
        m.run_ok = True
        m.execute(TxBegin())
        m.execute(Store(BASE, 11))
        m.execute(TxEnd())
        m.schedule_crash_after_persists(crash_point)
        try:
            m.execute(TxBegin())
            m.execute(Store(BASE + 64, 21))
            m.execute(TxEnd())
            m.cancel_scheduled_crash()
        except Exception:
            m.crash()
        return m

    @pytest.mark.parametrize("crash_point", range(6))
    @pytest.mark.parametrize("abort_first", [False, True])
    def test_equivalence_across_crash_points(self, crash_point, abort_first):
        structural = self._crashed_machine(crash_point, abort_first)
        serialized = self._crashed_machine(crash_point, abort_first)
        assert structural.pm._indexed
        serialized.pm._indexed = False
        recover(structural.pm)
        recover(serialized.pm)
        for addr in (BASE, BASE + 64):
            assert structural.pm.read_word(addr) == serialized.pm.read_word(addr)

    def test_aborted_records_inert_in_byte_log(self):
        m = self._crashed_machine(crash_point=10_000, abort_first=True)
        # No crash happened; the abort's serialized records are stale.
        m.pm._indexed = False
        report = recover(m.pm)
        assert m.pm.read_word(BASE) == 11  # not clobbered by stale undo
        assert report.rolled_back_tx_seqs == []

"""Model-based test of the indexed PM log (hypothesis).

:class:`~repro.mem.pm.PersistentMemory` keeps the log region as one
dense array of serialized words, records every placed append's start
offset in a second array and selects the live positions through a
per-``tx_seq`` index; it stores no entry object, and
:meth:`~PersistentMemory.extent`, :attr:`PersistentMemory.log` and
:meth:`~PersistentMemory.log_entries_for` decode from the words.
:class:`ListLog` below is the plain form of the same contract: every
appended entry is kept beside its start, the structural list is a
separate list pruned by filtering, the log region's words are a dict
keyed by address whose journal restores each prior value (or absence),
and one flag says whether the media is still as the appends left it (a
tear, a flip or a reverted drain clears it, a reset sets it).  Random
operation sequences must leave both with the same live positions, the
same flag, the same words, parse bound and byte parse, and the same log
for recovery: the live entries while the flag holds, the byte parse
after.  While the flag holds, the log and each transaction's entries
must equal the appended ones.  ``extent(i)`` must read every placed
append as the reference's words read at its start, live or resolved
(an invalid header, as a reverted or cut append leaves, raises
:class:`LogParseError`), and no :class:`DurableLogEntry` may stay
reachable from the PM.  A snapshot must never share mutable state with
its source.
"""

import pytest
from hypothesis import HealthCheck, example, given, settings
from hypothesis import strategies as st

from repro.common.errors import LogParseError, PowerFailure
from repro.faults import BitFlip, FaultModel, TornAppend
from repro.mem import layout
from repro.mem.logregion import (
    HEADER_WORDS,
    KIND_TAGS,
    PAYLOAD_KINDS,
    TAG_KINDS,
    DurableLogEntry,
    decode_region,
    encode_entry,
    stream_header_words,
)
from repro.mem.pm import PersistentMemory
from tests.reachable import reachable

BASE = layout.PM_HEAP_BASE
LOG_BASE = layout.PM_LOG_BASE
LOG_END = layout.PM_LOG_BASE + layout.PM_LOG_BYTES
TX_SEQS = (1, 2, 3, 1 << 40)


class _Group:
    """One durability group of the reference's journal."""

    def __init__(self, cursor0):
        self.cursor0 = cursor0
        self.writes = []  # (addr, prior value or None), in order


class ListLog:
    """The structural log as a plain list beside the append record, and
    the log region's words as a dict."""

    def __init__(self):
        self.log = []
        self.extents = []  # (entry, start address)
        self.words = {}
        self.cursor = LOG_BASE
        self.journal = None
        self.indexed = True

    def store(self, addr, value):
        if self.journal is not None:
            self.journal[-1].writes.append((addr, self.words.get(addr)))
        self.words[addr] = value

    def _start(self):
        if self.cursor == LOG_BASE:
            for i, word in enumerate(stream_header_words()):
                self.store(LOG_BASE + 8 * i, word)
            self.cursor = LOG_BASE + HEADER_WORDS * 8
        return self.cursor

    def _serialize(self, entry, cut):
        start = self._start()
        for i, word in enumerate(encode_entry(entry)[:cut]):
            self.store(start + 8 * i, word)
        self.cursor = start + 8 * cut
        return start

    def append(self, entry):
        start = self._serialize(entry, _wire_words(entry))
        self.log.append(entry)
        self.extents.append((entry, start))

    def tear(self, entry, cut):
        self._serialize(entry, cut)
        self.indexed = False

    def flip(self, entry, word, bit):
        self.append(entry)
        addr = self.extents[-1][1] + 8 * word
        self.store(addr, self.words.get(addr, 0) ^ (1 << bit))
        self.indexed = False

    def discard(self, tx_seq):
        self.log = [e for e in self.log if e.tx_seq != tx_seq]

    def arm(self):
        self.journal = [_Group(self.cursor)]

    def note(self):
        if self.journal is not None and self.journal[-1].writes:
            self.journal.append(_Group(self.cursor))

    def drop(self, count):
        dropped = 0
        while dropped < count and self.journal:
            group = self.journal.pop()
            if not group.writes:
                continue
            for addr, prior in reversed(group.writes):
                if prior is None:
                    self.words.pop(addr, None)
                else:
                    self.words[addr] = prior
            self.cursor = group.cursor0
            self.indexed = False
            dropped += 1
        if not self.journal:
            self.journal = [_Group(self.cursor)]
        return dropped

    def reset(self):
        self.log, self.extents, self.words = [], [], {}
        self.cursor = LOG_BASE
        self.indexed = True
        if self.journal is not None:
            self.journal = [_Group(self.cursor)]

    def read_back(self, start):
        """``(wire words, entry)`` as the words at *start* read, framed
        by their header word and unchecked; None for an invalid kind
        (a zero word included)."""
        header = self.words.get(start, 0)
        kind = TAG_KINDS.get(header & 0xF)
        if kind is None:
            return None
        if kind not in PAYLOAD_KINDS:
            return 2, DurableLogEntry(kind, header >> 12)
        n = (header >> 4) & 0xFF
        payload = tuple(self.words.get(start + 8 * (2 + i), 0) for i in range(n))
        return 3 + n, DurableLogEntry(
            kind, header >> 12, addr=self.words.get(start + 8, 0), words=payload
        )

    def limit(self):
        """Past the cursor and every word ever written."""
        return max([self.cursor] + [addr + 8 for addr in self.words])

    def parse(self):
        count = (self.limit() - LOG_BASE) // 8
        return decode_region(
            [self.words.get(LOG_BASE + 8 * i, 0) for i in range(count)]
        )

    def copy(self):
        """A deep copy that shares the (frozen) entries, as a PM
        snapshot does."""
        dup = ListLog()
        dup.log, dup.extents = list(self.log), list(self.extents)
        dup.words, dup.cursor = dict(self.words), self.cursor
        dup.indexed = self.indexed
        if self.journal is not None:
            dup.journal = []
            for group in self.journal:
                twin = _Group(group.cursor0)
                twin.writes = list(group.writes)
                dup.journal.append(twin)
        return dup


def _wire_words(entry):
    """The reference's wire length: header and checksum, plus address
    and payload for a payload kind."""
    return 3 + len(entry.words) if entry.kind in PAYLOAD_KINDS else 2


def _entry(kind, tx_seq, words):
    if kind in PAYLOAD_KINDS:
        return DurableLogEntry(kind, tx_seq, addr=BASE, words=tuple(words))
    return DurableLogEntry(kind, tx_seq)


ENTRIES = st.builds(
    _entry,
    st.sampled_from(tuple(KIND_TAGS)),
    st.sampled_from(TX_SEQS),
    st.lists(st.integers(0, (1 << 64) - 1), min_size=1, max_size=3),
)
STEPS = st.one_of(
    st.tuples(st.just("append"), ENTRIES, st.booleans()),
    st.tuples(st.just("torn"), ENTRIES, st.integers(0, 16)),
    st.tuples(st.just("flip"), ENTRIES, st.integers(0, 16), st.integers(0, 63)),
    st.tuples(st.just("discard"), st.sampled_from(TX_SEQS)),
    # Hand-write a word at the cursor or past it, over a gap.
    st.tuples(st.just("poke"), st.integers(0, 4), st.integers(0, (1 << 64) - 1)),
    st.tuples(st.just("arm")),
    st.tuples(st.just("note")),
    st.tuples(st.just("drop"), st.integers(0, 3)),
    st.tuples(st.just("reset")),
)
OPS = st.one_of(
    STEPS,
    st.tuples(
        st.just("copy"),
        st.booleans(),  # through load() rather than snapshot()
        st.booleans(),  # carry on with the copy
        st.lists(STEPS, max_size=6),
    ),
)


def _apply(pm, ref, step):
    op = step[0]
    if op == "append":
        _, entry, clean = step
        (pm.append_clean if clean else pm.log_append)(entry)
        ref.append(entry)
    elif op in ("torn", "flip"):
        entry, nwords = step[1], _wire_words(step[1])
        if op == "torn":
            plan = TornAppend(pm.log_appends, step[2] % (nwords + 1))
        else:
            plan = BitFlip(pm.log_appends, step[2] % nwords, step[3])
        pm.fault_model = FaultModel(plan)
        with pytest.raises(PowerFailure):
            pm.log_append(entry)
        pm.fault_model = None
        if op == "torn":
            ref.tear(entry, plan.cut_words)
        else:
            ref.flip(entry, plan.word, plan.bit)
    elif op == "discard":
        pm.log_discard_tx(step[1])
        ref.discard(step[1])
    elif op == "poke":
        _, gap, value = step
        addr = ref.cursor + 8 * gap
        pm.write_word(addr, value)
        ref.store(addr, value)
    elif op == "arm":
        pm.arm_journal()
        ref.arm()
    elif op == "note":
        pm.note_durability_event()
        ref.note()
    elif op == "drop":
        if ref.journal is not None:
            assert pm.drop_last_drains(step[1]) == ref.drop(step[1])
    elif op == "reset":
        pm.log_reset()
        ref.reset()


def _observe(pm):
    """Everything *pm* holds of its log, read without decoding."""
    return (
        {t: list(ps) for t, ps in pm._live.items()},
        pm._indexed,
        pm._starts.tolist(),
        pm.journal_groups(),
        dict(pm._words),
        pm._log_words.tolist(),
    )


def _check_extents(pm, ref):
    """``extent(i)`` for every placed append, read from the words."""
    assert len(pm._starts) == len(ref.extents)
    for i, (entry, start) in enumerate(ref.extents):
        read = ref.read_back(start)
        if ref.indexed:
            assert read == (_wire_words(entry), entry)
        if read is None:
            with pytest.raises(LogParseError):
                pm.extent(i)
        else:
            x = pm.extent(i)
            assert (x.start, x.nwords, x.entry) == (start, *read)
    with pytest.raises(IndexError):
        pm.extent(len(ref.extents))


def _parse_result(parsed):
    return parsed.entries, parsed.damaged, parsed.torn_tail


def _check(pm, ref):
    live = {id(e) for e in ref.log}
    assert {t: pm._live.get(t, []) for t in TX_SEQS} == {
        t: [
            i for i, (e, _) in enumerate(ref.extents)
            if id(e) in live and e.tx_seq == t
        ]
        for t in TX_SEQS
    }
    for t in TX_SEQS:
        assert pm.has_live_records(t) == any(e.tx_seq == t for e in ref.log)
    assert pm._indexed == ref.indexed
    parsed = pm.parsed_log()
    if ref.indexed:
        assert pm.log == ref.log
        for t in TX_SEQS:
            assert pm.log_entries_for(t) == [e for e in ref.log if e.tx_seq == t]
        assert parsed.clean and parsed.entries == ref.log
    else:
        assert _parse_result(parsed) == _parse_result(ref.parse())
    _check_extents(pm, ref)
    assert reachable(pm, DurableLogEntry) == []
    # The serialized words, against the dict form of the log region:
    # the array's length is the parse bound.
    assert not any(LOG_BASE <= a < LOG_END for a in pm._words)
    limit = ref.limit()
    assert LOG_BASE + 8 * len(pm._log_words) == limit
    for addr in range(LOG_BASE, limit + 16, 8):
        assert pm.read_word(addr) == ref.words.get(addr, 0), hex(addr)
    assert _parse_result(pm.parse_byte_log_tolerant()) == _parse_result(ref.parse())


def run_model(ops):
    pm, ref = PersistentMemory(), ListLog()
    for op in ops:
        if op[0] != "copy":
            _apply(pm, ref, op)
            _check(pm, ref)
            continue
        _, via_load, adopt, steps = op
        if via_load:
            dup = PersistentMemory()
            dup.load(pm)
        else:
            dup = pm.snapshot()
        dup_ref = ref.copy()
        _check(dup, dup_ref)
        before = _observe(pm)
        for step in steps:
            _apply(dup, dup_ref, step)
            _check(dup, dup_ref)
        assert _observe(pm) == before, "mutating a copy changed its source"
        if adopt:
            pm, ref = dup, dup_ref
    _check(pm, ref)


MODEL_SETTINGS = dict(deadline=None, suppress_health_check=[HealthCheck.too_slow])


@given(ops=st.lists(OPS, max_size=40))
@example(ops=[  # a drop past a prune and a later append rewinds words only
    ("arm",),
    ("append", _entry("undo", 1, [5]), False),
    ("append", _entry("commit", 2, []), False),
    ("discard", 1),
    ("append", _entry("redo", 1, [6]), False),
    ("note",),
    ("append", _entry("commit", 3, []), False),
    ("drop", 1),
    ("copy", False, True, [("drop", 1)]),
])
@example(ops=[  # a word hand-written past the tail, over a gap, then dropped
    ("arm",),
    ("append", _entry("commit", 2, []), False),
    ("note",),
    ("poke", 3, 7),
    ("drop", 1),
])
@example(ops=[  # a dropped drain reverts a live append: its extent reads zeros
    ("arm",),
    ("append", _entry("undo", 1, [5]), False),
    ("note",),
    ("append", _entry("redo", 2, [6]), False),
    ("drop", 1),
])
@example(ops=[  # a flipped live append: its extent reads the flipped words
    ("append", _entry("undo", 1, [5]), True),
    ("flip", _entry("redo", 1, [6, 7]), 3, 0),
])
@settings(max_examples=300, **MODEL_SETTINGS)
def test_indexed_log_matches_list_reference(ops):
    run_model(ops)


@pytest.mark.slow
@given(ops=st.lists(OPS, max_size=80))
@settings(max_examples=5000, **MODEL_SETTINGS)
def test_indexed_log_matches_list_reference_exhaustive(ops):
    run_model(ops)


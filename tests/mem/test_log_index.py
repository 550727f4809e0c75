"""Model-based test of the indexed PM log (hypothesis).

:class:`~repro.mem.pm.PersistentMemory` keeps structural log entries
only in its extent store, selects the live ones through a per-``tx_seq``
index of extent positions, and presents :attr:`PersistentMemory.log` as
a view.  :class:`ListLog` below is the plain-list form of the same
contract: the structural list is a separate list pruned by filtering,
journaled prunes are ``(index, entry)`` pairs re-inserted on a dropped
drain, and flipped or dropped entries are found by a backward identity
search.  Random operation sequences must leave both with the same log,
the same per-transaction entries and the same structural parse, and a
snapshot must never share mutable state with its source.
"""

import pytest
from hypothesis import HealthCheck, example, given, settings
from hypothesis import strategies as st

from repro.common.errors import PowerFailure
from repro.faults import BitFlip, FaultModel, TornAppend
from repro.mem import layout
from repro.mem.logregion import PAYLOAD_KINDS, entry_wire_words
from repro.mem.pm import DurableLogEntry, PersistentMemory

BASE = layout.PM_HEAP_BASE
TX_SEQS = (1, 2, 3, 1 << 40)


class _Group:
    """One durability group of the reference's journal."""

    def __init__(self, pristine):
        self.pristine = pristine  # the cursor sat at the region base
        self.dirty = False  # a durable word write happened in it
        self.appends = 0
        self.prunes = []  # lists of (index, entry), ascending


def _remove_last(entries, entry):
    for i in range(len(entries) - 1, -1, -1):
        if entries[i] is entry:
            del entries[i]
            return


class ListLog:
    """The structural log as a plain list beside the append record."""

    def __init__(self):
        self.log = []
        self.extents = []
        self.pristine = True
        self.journal = None

    def _wrote(self):
        if self.journal is not None:
            self.journal[-1].dirty = True

    def append(self, entry):
        self._wrote()
        self.pristine = False
        self.log.append(entry)
        self.extents.append(entry)
        if self.journal is not None:
            self.journal[-1].appends += 1

    def tear(self, cut):
        if self.pristine or cut:
            self._wrote()
        self.pristine = False

    def flip(self, entry):
        self.append(entry)
        _remove_last(self.log, entry)

    def discard(self, tx_seq):
        pruned = [(i, e) for i, e in enumerate(self.log) if e.tx_seq == tx_seq]
        self.log = [e for e in self.log if e.tx_seq != tx_seq]
        if pruned and self.journal is not None:
            self.journal[-1].prunes.append(pruned)

    def arm(self):
        self.journal = [_Group(self.pristine)]

    def note(self):
        if self.journal is not None and self.journal[-1].dirty:
            self.journal.append(_Group(self.pristine))

    def drop(self, count):
        dropped = 0
        while dropped < count and self.journal:
            group = self.journal.pop()
            for pruned in reversed(group.prunes):
                for index, entry in pruned:
                    self.log.insert(index, entry)
            if not group.dirty:
                continue
            for _ in range(group.appends):
                if self.extents:
                    _remove_last(self.log, self.extents.pop())
            self.pristine = group.pristine
            dropped += 1
        if not self.journal:
            self.journal = [_Group(self.pristine)]
        return dropped

    def reset(self):
        self.log, self.extents, self.pristine = [], [], True
        if self.journal is not None:
            self.journal = [_Group(True)]

    def copy(self):
        """A deep copy that shares the (frozen) entries, as a PM
        snapshot does."""
        dup = ListLog()
        dup.log, dup.extents = list(self.log), list(self.extents)
        dup.pristine = self.pristine
        if self.journal is not None:
            dup.journal = []
            for group in self.journal:
                twin = _Group(group.pristine)
                twin.dirty, twin.appends = group.dirty, group.appends
                twin.prunes = [list(pruned) for pruned in group.prunes]
                dup.journal.append(twin)
        return dup


def _entry(kind, tx_seq, words):
    if kind in PAYLOAD_KINDS:
        return DurableLogEntry(kind, tx_seq, addr=BASE, words=tuple(words))
    return DurableLogEntry(kind, tx_seq)


ENTRIES = st.builds(
    _entry,
    st.sampled_from(DurableLogEntry._KINDS),
    st.sampled_from(TX_SEQS),
    st.lists(st.integers(0, (1 << 64) - 1), min_size=1, max_size=3),
)
STEPS = st.one_of(
    st.tuples(st.just("append"), ENTRIES, st.booleans()),
    st.tuples(st.just("torn"), ENTRIES, st.integers(0, 16)),
    st.tuples(st.just("flip"), ENTRIES, st.integers(0, 16), st.integers(0, 63)),
    st.tuples(st.just("discard"), st.sampled_from(TX_SEQS)),
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
        entry, nwords = step[1], entry_wire_words(step[1])
        if op == "torn":
            plan = TornAppend(pm.log_appends, step[2] % (nwords + 1))
        else:
            plan = BitFlip(pm.log_appends, step[2] % nwords, step[3])
        pm.fault_model = FaultModel(plan)
        with pytest.raises(PowerFailure):
            pm.log_append(entry)
        pm.fault_model = None
        if op == "torn":
            ref.tear(plan.cut_words)
        else:
            ref.flip(entry)
    elif op == "discard":
        pm.log_discard_tx(step[1])
        ref.discard(step[1])
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
    """Everything a reader can see of *pm*'s log, by entry identity."""
    ids = lambda entries: [id(e) for e in entries]  # noqa: E731
    return (
        ids(pm.log),
        {t: ids(pm.log_entries_for(t)) for t in TX_SEQS},
        ids(pm.structural_parsed().entries),
        ids(x.entry for x in pm.log_extents),
        pm.journal_groups(),
        dict(pm._words),
    )


def _check(pm, ref):
    log, per_tx, parsed, extents, _, _ = _observe(pm)
    expected = [id(e) for e in ref.log]
    assert log == expected
    assert parsed == expected
    assert extents == [id(e) for e in ref.extents]
    for t in TX_SEQS:
        assert per_tx[t] == [id(e) for e in ref.log if e.tx_seq == t]


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
@example(ops=[  # a journaled prune comes back ahead of a later append
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
@settings(max_examples=300, **MODEL_SETTINGS)
def test_indexed_log_matches_list_reference(ops):
    run_model(ops)


@pytest.mark.slow
@given(ops=st.lists(OPS, max_size=80))
@settings(max_examples=5000, **MODEL_SETTINGS)
def test_indexed_log_matches_list_reference_exhaustive(ops):
    run_model(ops)


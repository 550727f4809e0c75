"""An independent judge of the exclusive L1/L2/L3 hierarchy.

The machine moves one ``CacheLine`` object through its three levels:
a hit in L2 or L3 moves the line into L1, an L1 victim moves to L2 with
its log bits aggregated (Figure 5), an L2 victim parks in L3 stripped of
its SLPMT metadata, and only a fill from memory builds a new line.

The reference here is three levels of plain per-set LRU lists of line
addresses.  It shares no code with :mod:`repro.mem.cache`, and it
predicts every hit, miss and eviction counter of every level.  Sequences
of load, store, storeT, begin, commit, abort and crash run on the
machine and on the reference, and after every operation:

* each level holds the reference's lines, in set and LRU order, and
  every ``l1``/``l2``/``l3`` hit, miss and eviction counter matches;
* a line address is resident in at most one level;
* each resident line's ``log_width`` matches its level (8, 2 or 0) and
  its mask fits that width;
* L3 lines carry no persist bit, tx ID or log bits, and (under undo
  logging, which never parks uncommitted data) are clean;
* a line that moved L1 -> L2 aggregated its mask, and one that a load
  brought back to L1 replicated it (both recomputed here from Section
  III-B1, not from the machine's tables);
* the line an access returned is the object L1 now holds;
* a load returns the last value stored to the word since its value
  was last unknown (after a crash, or an abort of a store to its line).
"""

import dataclasses
import itertools

import pytest
from hypothesis import HealthCheck, given, settings
from hypothesis import strategies as st

from repro.common import units
from repro.common.config import DEFAULT_CONFIG, CacheConfig
from repro.common.errors import SimulationError
from repro.core.machine import Machine
from repro.core.schemes import scheme_by_name
from repro.fuzz.campaign import STRESS_CONFIG
from repro.mem.layout import PM_HEAP_BASE

LINE = units.LINE_BYTES

#: Every level one set of two ways: seven lines overflow the hierarchy.
TOY_CONFIG = dataclasses.replace(
    DEFAULT_CONFIG,
    l1=CacheConfig(size_bytes=2 * LINE, ways=2, latency_cycles=4),
    l2=CacheConfig(size_bytes=2 * LINE, ways=2, latency_cycles=12),
    l3=CacheConfig(size_bytes=2 * LINE, ways=2, latency_cycles=40),
)

#: Line pools that collide in every level.  STRESS_CONFIG has 4 L1, 8 L2
#: and 32 L3 sets: line numbers 32k + j share an L3 set for each j, and
#: j = 0, 4, 8 also share L1 and L2 sets.
POOLS = {
    "stress": [PM_HEAP_BASE + LINE * (j + 32 * k) for j in (0, 1, 4, 8) for k in range(6)],
    "toy": [PM_HEAP_BASE + LINE * n for n in range(8)],
}
CONFIGS = {"stress": STRESS_CONFIG, "toy": TOY_CONFIG}

#: Undo-logging schemes: word and line granularity, with and without
#: the honoured storeT flags and the speculative fill on L1 eviction.
SCHEMES = ("FG", "SLPMT", "SLPMT+spec", "ATOM")

COUNTERS = tuple(
    f"l{level}_{kind}"
    for level in (1, 2, 3)
    for kind in ("hits", "misses", "evictions")
)
WIDTH = {1: units.WORDS_PER_LINE, 2: units.L2_LOG_BITS, 3: 0}


def aggregate(mask):
    """Section III-B1: an L2 bit is set iff all four L1 bits of its
    32-byte group are."""
    return sum(1 << g for g in range(2) if (mask >> (4 * g)) & 0xF == 0xF)


def replicate(mask):
    """Section III-B1: each L2 bit expands to its group's four L1 bits."""
    return sum(0xF << (4 * g) for g in range(2) if mask & (1 << g))


class LruLevel:
    """One cache level as lists of line addresses, LRU first."""

    def __init__(self, config):
        self.ways = config.ways
        self.sets = [[] for _ in range(config.num_sets)]

    def _set(self, addr):
        return self.sets[(addr // LINE) % len(self.sets)]

    def touch(self, addr):
        lines = self._set(addr)
        if addr not in lines:
            return False
        lines.remove(addr)
        lines.append(addr)
        return True

    def take(self, addr):
        lines = self._set(addr)
        if addr not in lines:
            return False
        lines.remove(addr)
        return True

    def put(self, addr):
        """Install *addr* as MRU; return the LRU victim of a full set."""
        lines = self._set(addr)
        victim = lines.pop(0) if len(lines) >= self.ways else None
        lines.append(addr)
        return victim

    def lines(self):
        return [addr for lines in self.sets for addr in lines]


class Reference:
    """The exclusive hierarchy as three LRU levels and a counter table."""

    def __init__(self, config):
        self.levels = {1: LruLevel(config.l1), 2: LruLevel(config.l2), 3: LruLevel(config.l3)}
        self.counts = dict.fromkeys(COUNTERS, 0)

    def access(self, addr):
        l1, l2, l3 = self.levels[1], self.levels[2], self.levels[3]
        if l1.touch(addr):
            self.counts["l1_hits"] += 1
            return
        self.counts["l1_misses"] += 1
        if l2.take(addr):
            self.counts["l2_hits"] += 1
        else:
            self.counts["l2_misses"] += 1
            self.counts["l3_hits" if l3.take(addr) else "l3_misses"] += 1
        victim = l1.put(addr)
        for level, below in ((1, l2), (2, l3), (3, None)):
            if victim is None:
                break
            self.counts[f"l{level}_evictions"] += 1
            victim = below.put(victim) if below is not None else None

    def drop(self, addrs):
        for level in self.levels.values():
            for addr in addrs:
                level.take(addr)

    def clear(self):
        for level in self.levels.values():
            for lines in level.sets:
                lines.clear()


def _caches(machine):
    return {1: machine.l1, 2: machine.l2, 3: machine.l3}


def _resident(machine):
    """``{level: [line, ...]}`` in set order, LRU first within a set."""
    return {
        level: list(cache.iter_matching(lambda line: True))
        for level, cache in _caches(machine).items()
    }


class Judge:
    """Runs one operation sequence on a machine beside the reference."""

    def __init__(self, scheme, config, pool):
        self.machine = Machine(scheme_by_name(scheme), config)
        self.speculative = self.machine.scheme.speculative_logging
        self.ref = Reference(config)
        self.pool = pool
        self.values = {}
        self.in_tx = False
        self.written = set()
        self.returned = []
        access = self.machine._access

        def spy(addr):
            line = access(addr)
            self.returned.append(line)
            return line

        self.machine._access = spy

    def step(self, op):
        machine = self.machine
        kind = op[0]
        before = {
            line.addr: (level, line.log_mask)
            for level, lines in _resident(machine).items()
            for line in lines
        }
        accessed = None
        if kind in ("load", "store", "storeT"):
            accessed = self.pool[op[1]]
            addr = accessed + op[2] * units.WORD_BYTES
            calls = len(self.returned)
            if kind == "load":
                got = machine.exec_load(addr)
                assert got == self.values.setdefault(addr, got), hex(addr)
            else:
                if kind == "store":
                    machine.exec_store(addr, op[3])
                else:
                    machine.exec_storeT(addr, op[3], op[4], op[5])
                self.values[addr] = op[3]
                if self.in_tx:
                    self.written.add(accessed)
            self.ref.access(accessed)
            assert len(self.returned) == calls + 1
            assert machine.l1.lookup(accessed, touch=False) is self.returned[-1]
        elif kind == "begin" and not self.in_tx:
            machine.tx_begin()
            self.in_tx, self.written = True, set()
        elif kind in ("commit", "abort") and self.in_tx:
            if kind == "commit":
                machine.tx_end()
            else:
                machine.tx_abort()
                self.ref.drop(self.written)
                for addr in list(self.values):
                    if addr - addr % LINE in self.written:
                        del self.values[addr]
            self.in_tx = False
        elif kind == "crash":
            machine.crash()
            self.ref.clear()
            self.values.clear()
            self.in_tx = False
        self.check(before, accessed if kind == "load" else None)

    def check(self, before, loaded):
        machine = self.machine
        resident = _resident(machine)
        stats = machine.stats
        for level, lines in resident.items():
            assert [line.addr for line in lines] == self.ref.levels[level].lines()
        assert {name: getattr(stats, name) for name in COUNTERS} == self.ref.counts
        assert stats.pm_reads == stats.l3_misses
        addrs = [line.addr for lines in resident.values() for line in lines]
        assert len(addrs) == len(set(addrs)), "a line resident in two levels"
        for level, lines in resident.items():
            for line in lines:
                assert line.log_width == WIDTH[level], (level, line)
                assert 0 <= line.log_mask < 1 << WIDTH[level], (level, line)
                was = before.get(line.addr)
                if was is None:
                    continue
                old_level, old_mask = was
                if old_level == 1 and level == 2:
                    want = aggregate(old_mask)
                    if self.speculative:
                        # The speculative fill only ever adds L1 bits.
                        assert want & ~line.log_mask == 0, line
                    else:
                        assert line.log_mask == want, line
                elif level == 1 and old_level != 1 and line.addr == loaded:
                    assert line.log_mask == replicate(old_mask), line
        for line in resident[3]:
            assert not line.persist and line.tx_id is None and line.log_mask == 0, line
            assert not line.dirty, line


def _run(scheme, geometry, ops):
    judge = Judge(scheme, CONFIGS[geometry], POOLS[geometry])
    for op in ops:
        judge.step(op)
    return judge


def _ops(pool_size):
    line = st.integers(0, pool_size - 1)
    word = st.integers(0, units.WORDS_PER_LINE - 1)
    value = st.integers(1, 1 << 20)
    load = st.tuples(st.just("load"), line, word)
    store = st.tuples(st.just("store"), line, word, value)
    store_t = st.tuples(st.just("storeT"), line, word, value, st.booleans(), st.booleans())
    control = st.sampled_from([("begin",), ("commit",), ("abort",), ("crash",)])
    return st.lists(st.one_of(load, load, store, store_t, store_t, control), max_size=80)


SETTINGS = dict(deadline=None, suppress_health_check=[HealthCheck.too_slow])


@settings(max_examples=150, **SETTINGS)
@given(scheme=st.sampled_from(SCHEMES), ops=_ops(len(POOLS["stress"])))
def test_stress_geometry_matches_lru_reference(scheme, ops):
    _run(scheme, "stress", ops)


@settings(max_examples=150, **SETTINGS)
@given(scheme=st.sampled_from(SCHEMES), ops=_ops(len(POOLS["toy"])))
def test_toy_geometry_matches_lru_reference(scheme, ops):
    _run(scheme, "toy", ops)


def test_every_level_evicts():
    """The toy pools reach every eviction counter: eight lines through a
    six-line hierarchy."""
    judge = _run("SLPMT", "toy", [("store", n, 0, n + 1) for n in range(8)])
    stats = judge.machine.stats
    assert stats.l1_evictions == 6 and stats.l2_evictions == 4 and stats.l3_evictions == 2
    # A line parked in L3 comes back to L1 as the same object.
    parked = judge.machine.l3.lookup(POOLS["toy"][3], touch=False)
    judge.step(("load", 3, 0))
    assert judge.returned[-1] is parked


class TestRedoNoSteal:
    """Redo logging is no-steal: an L2 victim holding the running
    transaction's data parks dirty in L3, reaches PM only at ``tx_end``,
    and a hierarchy too small to hold the transaction fails loudly."""

    def _stores(self, count):
        machine = Machine(scheme_by_name("SLPMT:redo"), TOY_CONFIG)
        machine.tx_begin()
        for n, addr in enumerate(POOLS["toy"][:count]):
            machine.exec_store(addr, 100 + n)
        return machine

    def test_uncommitted_line_parks_dirty_until_commit(self):
        # Five lines through two L1 and two L2 ways: line 0 leaves L2.
        machine = self._stores(5)
        first = POOLS["toy"][0]
        parked = machine.l3.lookup(first, touch=False)
        assert parked is not None and parked.dirty
        assert machine.stats.l2_evictions == 1
        assert machine.pm.read_word(first) == 0
        machine.tx_end()
        assert not parked.dirty
        assert [machine.pm.read_word(a) for a in POOLS["toy"][:5]] == [
            100, 101, 102, 103, 104,
        ]

    def test_overflowing_l3_with_uncommitted_lines_raises(self):
        # The seventh line pushes line 0 out of a full L3 still dirty.
        with pytest.raises(SimulationError, match="no-steal"):
            self._stores(7)


#: After a prefix that fills every toy level (L1: lines 4, 5; L2: 2, 3;
#: L3: 0, 1), each symbol either hits one level, overflows all of them,
#: or changes the transaction state.
EXHAUSTIVE_PREFIX = [("load", n, 0) for n in range(6)]
EXHAUSTIVE_ALPHABET = [
    ("load", 0, 1),
    ("load", 2, 2),
    ("load", 6, 3),
    ("store", 1, 3),
    ("storeT", 5, 0, True, False),
    ("storeT", 3, 7, False, True),
    ("begin",),
    ("commit",),
    ("abort",),
    ("crash",),
]


@pytest.mark.slow
@pytest.mark.parametrize("scheme", SCHEMES)
def test_toy_geometry_exhaustive(scheme):
    """Every sequence of four symbols after the filling prefix."""
    for seq in itertools.product(EXHAUSTIVE_ALPHABET, repeat=4):
        ops = list(EXHAUSTIVE_PREFIX)
        for i, symbol in enumerate(seq):
            if symbol[0] in ("store", "storeT"):
                # A distinct value per position keeps the value check sharp.
                symbol = symbol[:3] + (100 + i,) + symbol[3:]
            ops.append(symbol)
        _run(scheme, "toy", ops)

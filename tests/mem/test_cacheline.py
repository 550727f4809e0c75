"""Cache-line metadata and the Figure-5 log-bit transformations."""

import dataclasses

import pytest

from repro.common.config import DEFAULT_CONFIG, CacheConfig
from repro.common.errors import SimulationError
from repro.core.machine import Machine
from repro.mem.cacheline import (
    AGGREGATE_MASK,
    POPCOUNT,
    REPLICATE_MASK,
    CacheLine,
    Mesi,
    aggregate_log_bits_l1_to_l2,
    new_l1_line,
    replicate_log_bits_l2_to_l1,
)
from repro.mem.layout import PM_HEAP_BASE

WORDS = list(range(8))


def _one_set_machine():
    """Every level one set: L1 and L2 two ways, L3 four."""
    config = dataclasses.replace(
        DEFAULT_CONFIG,
        l1=CacheConfig(size_bytes=128, ways=2, latency_cycles=1),
        l2=CacheConfig(size_bytes=128, ways=2, latency_cycles=1),
        l3=CacheConfig(size_bytes=256, ways=4, latency_cycles=1),
    )
    return Machine(config=config)


class TestConstruction:
    def test_l1_line_has_eight_log_bits(self):
        assert len(new_l1_line(0x1000, WORDS).log_bits) == 8

    def test_l2_line_has_two_log_bits(self):
        # Three loads through two L1 ways push the first line to L2.
        machine = _one_set_machine()
        for i in range(3):
            machine.exec_load(PM_HEAP_BASE + 64 * i)
        assert len(machine.l2.lookup(PM_HEAP_BASE, touch=False).log_bits) == 2

    def test_l3_line_has_none(self):
        # Five loads through two L1 and two L2 ways push it on to L3.
        machine = _one_set_machine()
        for i in range(5):
            machine.exec_load(PM_HEAP_BASE + 64 * i)
        assert machine.l3.lookup(PM_HEAP_BASE, touch=False).log_bits == []

    def test_unaligned_rejected(self):
        with pytest.raises(SimulationError):
            new_l1_line(0x1010, WORDS)

    def test_wrong_word_count_rejected(self):
        with pytest.raises(SimulationError):
            CacheLine(addr=0x1000, words=[0] * 4)


class TestWordAccess:
    def test_write_marks_dirty_and_modified(self):
        line = new_l1_line(0x1000, WORDS.copy())
        assert not line.dirty
        line.write_word(3, 99)
        assert line.dirty
        assert line.state is Mesi.MODIFIED
        assert line.read_word(3) == 99


class TestLazyDetection:
    def test_is_lazy(self):
        line = new_l1_line(0x1000, WORDS.copy())
        line.write_word(0, 1)
        line.tx_id = 2
        line.persist = False
        assert line.is_lazy()

    def test_persist_bit_cancels_lazy(self):
        line = new_l1_line(0x1000, WORDS.copy())
        line.write_word(0, 1)
        line.tx_id = 2
        line.persist = True
        assert not line.is_lazy()

    def test_untracked_line_not_lazy(self):
        line = new_l1_line(0x1000, WORDS.copy())
        line.write_word(0, 1)
        assert not line.is_lazy()


class TestLogBitAggregation:
    """Section III-B1: conjunction down, replication up."""

    def test_all_set_aggregates_set(self):
        assert aggregate_log_bits_l1_to_l2([True] * 8) == [True, True]

    def test_partial_group_aggregates_unset(self):
        bits = [True, True, True, False] + [True] * 4
        assert aggregate_log_bits_l1_to_l2(bits) == [False, True]

    def test_empty_aggregates_empty(self):
        assert aggregate_log_bits_l1_to_l2([False] * 8) == [False, False]

    def test_replication_expands(self):
        assert replicate_log_bits_l2_to_l1([True, False]) == [True] * 4 + [False] * 4

    def test_roundtrip_loses_partial_information(self):
        # The paper's duplicated-logging case: a partially logged group
        # comes back fully unlogged after the L2 round trip.
        bits = [True] + [False] * 7
        assert replicate_log_bits_l2_to_l1(aggregate_log_bits_l1_to_l2(bits)) == [False] * 8

    def test_roundtrip_preserves_full_groups(self):
        bits = [True] * 4 + [False] * 4
        assert replicate_log_bits_l2_to_l1(aggregate_log_bits_l1_to_l2(bits)) == bits

    def test_machine_tables_match_figure5_functions(self):
        # The machine reads the precomputed tables; pin every entry to
        # the readable Figure-5 functions above.
        def bits(mask, width):
            return [bool(mask & (1 << i)) for i in range(width)]

        def mask(bits):
            return sum(1 << i for i, bit in enumerate(bits) if bit)

        assert len(AGGREGATE_MASK) == len(POPCOUNT) == 256
        for m in range(256):
            assert AGGREGATE_MASK[m] == mask(aggregate_log_bits_l1_to_l2(bits(m, 8)))
            assert POPCOUNT[m] == bin(m).count("1")
        assert len(REPLICATE_MASK) == 4
        for m in range(4):
            assert REPLICATE_MASK[m] == mask(replicate_log_bits_l2_to_l1(bits(m, 2)))

    def test_wrong_width_rejected(self):
        with pytest.raises(SimulationError):
            aggregate_log_bits_l1_to_l2([True] * 4)
        with pytest.raises(SimulationError):
            replicate_log_bits_l2_to_l1([True] * 8)

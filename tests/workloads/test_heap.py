"""Durable array max-heap: sift-up, growth, crash recovery."""

import pytest
from hypothesis import HealthCheck, given, settings
from hypothesis import strategies as st

from repro.common.errors import RecoveryError
from repro.recovery.engine import recover
from repro.workloads.base import value_words_for_key
from repro.workloads.heap import ENTRY_BYTES, HEADER, INITIAL_CAPACITY, MaxHeap

from .conftest import crash_during_insert, keys_for, make_workload, persists_in_insert


class TestOperations:
    def test_insert_and_lookup(self, scheme_policy):
        scheme, policy = scheme_policy
        heap = make_workload(MaxHeap, scheme=scheme, policy=policy)
        for k in keys_for(40):
            heap.insert(k)
        heap.verify()

    def test_max_at_root(self):
        heap = make_workload(MaxHeap)
        keys = keys_for(30)
        for k in keys:
            heap.insert(k)
        read = heap.reader()
        array = read(HEADER.addr(heap.header, "array"))
        assert read(array) == max(keys)

    def test_ascending_keys_sift_to_root(self):
        heap = make_workload(MaxHeap)
        for k in range(1, 40):
            heap.insert(k)
        heap.verify()

    def test_durable_after_flush(self):
        heap = make_workload(MaxHeap)
        for k in keys_for(20):
            heap.insert(k)
        heap.rt.run_empty_transactions(4)
        heap.verify(durable=True)


class TestContents:
    """``contents`` is the one-walk form of a ``_lookup`` per key, and
    ``verify_contents`` built on it judges exactly as before."""

    @settings(max_examples=25, deadline=None, suppress_health_check=[HealthCheck.too_slow])
    @given(
        keys=st.lists(st.integers(1, 40), max_size=150),
        extracts=st.integers(0, 5),
    )
    def test_contents_equals_per_key_lookup(self, keys, extracts):
        heap = make_workload(MaxHeap, value_bytes=16)
        for k in keys:  # small key range: most keys repeat
            heap.insert(k)
        for _ in range(extracts):
            heap.extract_max()
        for durable in (False, True):
            read = heap.reader(durable=durable)
            contents = heap.contents(read)
            assert contents == {
                k: heap._lookup(k, read) for k in range(42) if heap._lookup(k, read) is not None
            }
            assert set(contents) == set(heap.iter_keys(read))

    def test_verify_contents_rejects_wrong_word_and_missing_key(self):
        heap = make_workload(MaxHeap)
        keys = keys_for(100)
        for k in keys:
            heap.insert(k)
        heap.verify_contents()
        read = heap.reader()
        word = heap._lookup(keys[7], read) + 8
        good = read(word)
        heap.rt.machine.raw_write(word, good ^ 1)
        with pytest.raises(RecoveryError, match=f"heap: key {keys[7]} has wrong value"):
            heap.verify_contents()
        heap.rt.machine.raw_write(word, good)
        heap.verify_contents()
        heap.expected[12345] = value_words_for_key(12345, heap.value_words)
        with pytest.raises(RecoveryError, match=r"heap: key 12345 has wrong value \(got None"):
            heap.verify_contents()

    def test_verify_contents_reads_each_entry_once(self):
        heap = make_workload(MaxHeap, value_bytes=16)
        for k in keys_for(200):
            heap.insert(k)
        reads = []
        read = heap.reader()
        heap.reader = lambda durable=False: lambda addr: reads.append(addr) or read(addr)
        heap.verify_contents()
        # Two header words, key and pointer of each entry, two value words each.
        assert len(reads) == 2 + 2 * 200 + 2 * 200


class TestGrowth:
    def test_grow_doubles_capacity(self):
        heap = make_workload(MaxHeap)
        for k in keys_for(INITIAL_CAPACITY + 1):
            heap.insert(k)
        read = heap.reader()
        assert read(HEADER.addr(heap.header, "capacity")) == 2 * INITIAL_CAPACITY
        heap.verify()

    def test_multiple_growths(self):
        heap = make_workload(MaxHeap)
        for k in keys_for(3 * INITIAL_CAPACITY):
            heap.insert(k)
        read = heap.reader()
        assert read(HEADER.addr(heap.header, "capacity")) == 4 * INITIAL_CAPACITY
        heap.verify()

    def test_old_array_retired(self):
        heap = make_workload(MaxHeap)
        keys = keys_for(INITIAL_CAPACITY + 2)
        for k in keys[: INITIAL_CAPACITY + 1]:
            heap.insert(k)
        read = heap.reader()
        assert read(HEADER.addr(heap.header, "old_array")) == 0  # retired inside insert
        heap.verify()


class TestIntegrityChecker:
    def test_detects_heap_violation(self):
        heap = make_workload(MaxHeap)
        for k in keys_for(10):
            heap.insert(k)
        read = heap.reader()
        array = read(HEADER.addr(heap.header, "array"))
        heap.rt.machine.raw_write(array, 0)  # root smaller than children
        with pytest.raises(RecoveryError):
            heap.check_integrity(read)

    def test_detects_size_overflow(self):
        heap = make_workload(MaxHeap)
        heap.insert(1)
        heap.rt.machine.raw_write(HEADER.addr(heap.header, "size"), 10_000)
        with pytest.raises(RecoveryError):
            heap.check_integrity(heap.reader())


class TestCrashRecovery:
    def test_crash_at_every_point_of_one_insert(self):
        keys = keys_for(8)
        total = persists_in_insert(MaxHeap, keys[:6], keys[6])
        for point in range(total):
            heap = make_workload(MaxHeap)
            for k in keys[:6]:
                heap.insert(k)
            assert crash_during_insert(heap, keys[6], point)
            heap.verify(durable=True)
            assert heap.lookup(keys[6], durable=True) is None

    @pytest.mark.parametrize("crash_point", [0, 2, 5, 9])
    def test_crash_during_growth_insert(self, crash_point):
        keys = keys_for(INITIAL_CAPACITY + 2)
        heap = make_workload(MaxHeap)
        for k in keys[:INITIAL_CAPACITY]:
            heap.insert(k)
        crashed = crash_during_insert(heap, keys[INITIAL_CAPACITY], crash_point)
        if not crashed:
            pytest.skip("insert finished before the crash point")
        heap.verify(durable=True)
        heap.insert(keys[INITIAL_CAPACITY + 1])
        heap.verify()

    def test_crash_after_growth_commit_recopies(self):
        """The moved entries are lazy; a crash after the growth commits
        must re-copy them from the intact old array."""
        keys = keys_for(INITIAL_CAPACITY + 1)
        heap = make_workload(MaxHeap)
        for k in keys[:INITIAL_CAPACITY]:
            heap.insert(k)
        # Run just the growth transaction (before_transaction hook).
        heap.before_transaction(keys[INITIAL_CAPACITY])
        machine = heap.rt.machine
        read = heap.reader()
        assert read(HEADER.addr(heap.header, "old_array")) != 0
        machine.crash()
        recover(machine.pm, hooks=[heap])
        heap.verify(durable=True)

    def test_entries_beyond_old_capacity_not_clobbered(self):
        """Recovery re-copy covers only moved entries; later appends in
        the new array live beyond the old capacity and must survive."""
        keys = keys_for(INITIAL_CAPACITY + 3)
        heap = make_workload(MaxHeap)
        for k in keys:
            heap.insert(k)
        machine = heap.rt.machine
        heap.rt.run_empty_transactions(4)
        machine.fence()
        machine.crash()
        recover(machine.pm, hooks=[heap])
        heap.verify(durable=True)

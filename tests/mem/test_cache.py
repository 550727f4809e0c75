"""Set-associative cache: lookup, LRU, eviction."""

import pytest

from repro.common.config import CacheConfig
from repro.common.errors import SimulationError
from repro.mem.cache import SetAssocCache
from repro.mem.cacheline import new_l1_line


def tiny_cache(ways=2, sets=4):
    config = CacheConfig(size_bytes=ways * sets * 64, ways=ways, latency_cycles=1)
    return SetAssocCache("T", config)


def line_at(addr):
    return new_l1_line(addr, [0] * 8)


def addr_for_set(cache, set_index, tag=0):
    return (tag * cache.config.num_sets + set_index) * 64


class TestLookupInsert:
    def test_miss_returns_none(self):
        assert tiny_cache().lookup(0) is None

    def test_hit_after_insert(self):
        cache = tiny_cache()
        cache.insert(line_at(0x100))
        assert cache.lookup(0x100) is not None

    def test_insert_returns_no_victim_when_room(self):
        assert tiny_cache().insert(line_at(0)) is None

    def test_double_insert_rejected(self):
        cache = tiny_cache()
        cache.insert(line_at(0))
        with pytest.raises(SimulationError):
            cache.insert(line_at(0))

    def test_contains(self):
        cache = tiny_cache()
        cache.insert(line_at(0x40))
        assert cache.contains(0x40)
        assert not cache.contains(0x80)


class TestLru:
    def test_evicts_least_recently_used(self):
        cache = tiny_cache(ways=2)
        a = addr_for_set(cache, 0, tag=0)
        b = addr_for_set(cache, 0, tag=1)
        c = addr_for_set(cache, 0, tag=2)
        cache.insert(line_at(a))
        cache.insert(line_at(b))
        victim = cache.insert(line_at(c))
        assert victim is not None and victim.addr == a

    def test_lookup_refreshes_recency(self):
        cache = tiny_cache(ways=2)
        a = addr_for_set(cache, 0, tag=0)
        b = addr_for_set(cache, 0, tag=1)
        c = addr_for_set(cache, 0, tag=2)
        cache.insert(line_at(a))
        cache.insert(line_at(b))
        cache.lookup(a)  # A becomes MRU
        victim = cache.insert(line_at(c))
        assert victim.addr == b

    def test_untouched_lookup_preserves_lru(self):
        cache = tiny_cache(ways=2)
        a = addr_for_set(cache, 0, tag=0)
        b = addr_for_set(cache, 0, tag=1)
        c = addr_for_set(cache, 0, tag=2)
        cache.insert(line_at(a))
        cache.insert(line_at(b))
        cache.lookup(a, touch=False)
        victim = cache.insert(line_at(c))
        assert victim.addr == a

    def test_different_sets_do_not_interfere(self):
        cache = tiny_cache(ways=1, sets=4)
        a = addr_for_set(cache, 0)
        b = addr_for_set(cache, 1)
        cache.insert(line_at(a))
        assert cache.insert(line_at(b)) is None

    def test_non_power_of_two_sets_index_by_modulo(self):
        cache = tiny_cache(ways=2, sets=3)
        assert cache.num_sets == 3
        # In a direct-mapped 3-set cache two lines conflict exactly when
        # their line numbers agree modulo 3.
        addrs = (0x0, 0x40, 0x80, 0xC0, 0x100, 0x140)
        for a in addrs:
            for b in addrs:
                if a == b:
                    continue
                direct = tiny_cache(ways=1, sets=3)
                direct.insert(line_at(a))
                victim = direct.insert(line_at(b))
                same_set = (a >> 6) % 3 == (b >> 6) % 3
                assert (victim is not None) == same_set
                assert direct.contains(a) is not same_set
        # 0x0, 0xC0 and 0x180 share set 0: the third fill evicts the LRU.
        cache.insert(line_at(0x0))
        cache.insert(line_at(0xC0))
        assert cache.insert(line_at(0x40)) is None
        assert cache.insert(line_at(0x180)).addr == 0x0


class TestRemoveAndScan:
    def test_remove(self):
        cache = tiny_cache()
        cache.insert(line_at(0x40))
        removed = cache.remove(0x40)
        assert removed.addr == 0x40
        assert cache.lookup(0x40) is None

    def test_remove_missing_returns_none(self):
        assert tiny_cache().remove(0x40) is None

    def test_resident_count_and_clear(self):
        cache = tiny_cache()
        cache.insert(line_at(0x00))
        cache.insert(line_at(0x40))
        assert cache.resident_count() == 2
        cache.clear()
        assert cache.resident_count() == 0

    def test_iteration_covers_all(self):
        cache = tiny_cache()
        for i in range(4):
            cache.insert(line_at(i * 64))
        assert {ln.addr for ln in cache.iter_matching(lambda ln: True)} == {
            0, 64, 128, 192
        }

    def test_iter_matching_is_lazy_and_filters(self):
        import types

        cache = tiny_cache()
        l1, l2 = line_at(0x00), line_at(0x40)
        l1.dirty = True
        cache.insert(l1)
        cache.insert(l2)
        it = cache.iter_matching(lambda ln: ln.dirty)
        assert isinstance(it, types.GeneratorType)
        assert [ln.addr for ln in it] == [0x00]

    def test_iter_matching_allows_field_mutation(self):
        # The fence path clears dirty bits while iterating; line-field
        # mutation (not structural mutation) must be safe mid-iteration.
        cache = tiny_cache()
        for i in range(4):
            ln = line_at(i * 64)
            ln.dirty = True
            cache.insert(ln)
        for ln in cache.iter_matching(lambda l: l.dirty):
            ln.dirty = False
        assert list(cache.iter_matching(lambda l: l.dirty)) == []


class TestNeverFilledSets:
    """A set's storage is made by its first fill; until then every
    method reads it as an empty set."""

    def allocated(self, cache):
        return [i for i, s in enumerate(cache._sets) if s is not None]

    def test_fresh_cache_holds_no_set_storage(self):
        cache = tiny_cache(ways=2, sets=4)
        assert self.allocated(cache) == []
        assert cache.lookup(0x40) is None
        assert cache.lookup(0x40, touch=False) is None
        assert not cache.contains(0x40)
        assert cache.remove(0x40) is None
        assert list(cache.iter_matching(lambda ln: True)) == []
        assert cache.resident_count() == 0
        cache.clear()
        assert self.allocated(cache) == []

    def test_only_a_fill_allocates_its_set(self):
        cache = tiny_cache(ways=2, sets=4)
        cache.insert(line_at(addr_for_set(cache, 2)))
        assert self.allocated(cache) == [2]
        for set_index in range(4):
            addr = addr_for_set(cache, set_index, tag=1)
            assert cache.lookup(addr) is None
            assert not cache.contains(addr)
            assert cache.remove(addr) is None
        assert self.allocated(cache) == [2]

    def test_never_filled_sets_behave_as_emptied_ones(self):
        # Every method answers alike on a cache whose sets were never
        # filled and on one whose sets were all filled and emptied.
        fresh, emptied = tiny_cache(ways=2, sets=4), tiny_cache(ways=2, sets=4)
        for set_index in range(4):
            addr = addr_for_set(emptied, set_index)
            emptied.insert(line_at(addr))
            emptied.remove(addr)
        assert self.allocated(emptied) == [0, 1, 2, 3]
        for cache in (fresh, emptied):
            cache.insert(line_at(addr_for_set(cache, 1)))
            cache.insert(line_at(addr_for_set(cache, 1, tag=1)))
        probes = [addr_for_set(fresh, s, tag=t) for s in range(4) for t in range(3)]
        for cache in (fresh, emptied):
            cache.lookup(addr_for_set(cache, 1))
        assert [fresh.contains(a) for a in probes] == [emptied.contains(a) for a in probes]
        assert [
            ln.addr for ln in fresh.iter_matching(lambda ln: True)
        ] == [ln.addr for ln in emptied.iter_matching(lambda ln: True)]
        assert fresh.resident_count() == emptied.resident_count() == 2
        victims = [
            cache.insert(line_at(addr_for_set(cache, 1, tag=2))).addr
            for cache in (fresh, emptied)
        ]
        assert victims == [addr_for_set(fresh, 1, tag=1)] * 2
        for cache in (fresh, emptied):
            cache.clear()
            assert cache.resident_count() == 0
            assert list(cache.iter_matching(lambda ln: True)) == []

    def test_iter_matching_walks_sets_in_index_order(self):
        # Fills in reverse set order; the scan still walks set 0 first,
        # each set from its LRU line to its MRU line.
        cache = tiny_cache(ways=2, sets=4)
        for set_index in (3, 1, 2, 0):
            for tag in (1, 0):
                cache.insert(line_at(addr_for_set(cache, set_index, tag=tag)))
        assert [ln.addr for ln in cache.iter_matching(lambda ln: True)] == [
            addr_for_set(cache, s, tag=t) for s in range(4) for t in (1, 0)
        ]

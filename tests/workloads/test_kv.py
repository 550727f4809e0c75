"""The three pmemkv backends: btree, ctree, rtree."""

import pytest

from repro.common.errors import PowerFailure, RecoveryError, ReproError
from repro.workloads.kv.btree import MAX_KEYS, BTreeKV
from repro.workloads.kv.btree import HEADER as BT_HEADER
from repro.workloads.kv.btree import NODE as BT_NODE
from repro.workloads.kv.ctree import CritBitKV
from repro.workloads.kv.engine import KV_BACKENDS, make_kv
from repro.workloads.kv.rtree import RadixKV
from repro.runtime.ptx import PTx
from repro.core.machine import Machine
from repro.core.schemes import FG_LG, SLPMT
from repro.recovery.engine import recover
from repro.runtime.hints import MANUAL
from repro.workloads.base import value_words_for_key

from .conftest import crash_during_insert, keys_for, make_workload, persists_in_insert

ALL_BACKENDS = [BTreeKV, CritBitKV, RadixKV]


@pytest.mark.parametrize("cls", ALL_BACKENDS)
class TestCommonBehaviour:
    def test_insert_and_lookup(self, cls, scheme_policy):
        scheme, policy = scheme_policy
        kv = make_workload(cls, scheme=scheme, policy=policy)
        for k in keys_for(50):
            kv.insert(k)
        kv.verify()

    def test_missing_key(self, cls):
        kv = make_workload(cls)
        kv.insert(123456)
        assert kv.lookup(654321) is None

    def test_update_existing(self, cls):
        kv = make_workload(cls)
        kv.insert(42, [1] * kv.value_words)
        kv.insert(42, [2] * kv.value_words)
        assert kv.lookup(42) == [2] * kv.value_words

    def test_sequential_keys(self, cls):
        kv = make_workload(cls)
        for k in range(1, 80):
            kv.insert(k)
        kv.verify()

    def test_durable_after_flush(self, cls):
        kv = make_workload(cls)
        for k in keys_for(30):
            kv.insert(k)
        kv.rt.run_empty_transactions(4)
        kv.verify(durable=True)

    def test_crash_at_many_points_of_one_insert(self, cls):
        keys = keys_for(10)
        total = persists_in_insert(cls, keys[:8], keys[8])
        for point in range(min(total, 8)):
            kv = make_workload(cls)
            for k in keys[:8]:
                kv.insert(k)
            assert crash_during_insert(kv, keys[8], point)
            kv.verify(durable=True)
            assert kv.lookup(keys[8], durable=True) is None

    def test_continue_after_crash(self, cls):
        keys = keys_for(20)
        kv = make_workload(cls)
        for k in keys[:10]:
            kv.insert(k)
        crashed = crash_during_insert(kv, keys[10], 1)
        if not crashed:
            pytest.skip("insert finished before the crash point")
        for k in keys[11:16]:
            kv.insert(k)
        kv.verify()


class TestBTreeSpecific:
    def test_root_split_increases_depth(self):
        kv = make_workload(BTreeKV)
        for k in range(1, MAX_KEYS + 2):  # overflow the root leaf
            kv.insert(k)
        read = kv.reader()
        root = read(BT_HEADER.addr(kv.header, "root"))
        assert not read(BT_NODE.addr(root, "leaf"))
        kv.verify()

    def test_deep_tree(self):
        kv = make_workload(BTreeKV)
        for k in keys_for(300):
            kv.insert(k)
        kv.verify()

    @pytest.mark.parametrize("scheme", [SLPMT, FG_LG], ids=lambda s: s.name)
    def test_batch_insert_into_shrunk_half_survives_every_crash(self, scheme):
        """One transaction runs two inserts, as a service batch does: 9
        splits the full root, then 1 lands in the shrunk old root and
        shifts a key into its slot 3.  Rollback restores the old root's
        ``n`` of 7, so that store needs its pre-image even though slot 3
        lies past the split's new ``n``."""
        point = 0
        while True:
            kv = make_workload(BTreeKV, scheme=scheme, value_bytes=32)
            for k in range(2, 9):
                kv.insert(k)
            machine = kv.rt.machine
            values = {k: value_words_for_key(k, kv.value_words) for k in (9, 1)}
            machine.schedule_crash_after_persists(point)
            try:
                with kv.rt.transaction():
                    for k, value in values.items():
                        kv._insert(k, value)
            except PowerFailure:
                machine.crash()
                recover(machine.pm, mode=machine.scheme.logging_mode, hooks=[kv])
                kv.verify(durable=True)
                point += 1
                continue
            machine.cancel_scheduled_crash()
            kv.expected.update(values)
            kv.verify(durable=True)
            break
        assert point > 16  # the sweep reached past the stores into slot 3

    def test_integrity_detects_unsorted_keys(self):
        kv = make_workload(BTreeKV)
        for k in keys_for(20):
            kv.insert(k)
        read = kv.reader()
        root = read(BT_HEADER.addr(kv.header, "root"))
        kv.rt.machine.raw_write(BT_NODE.addr(root, "key0"), 2**62)
        with pytest.raises(RecoveryError):
            kv.check_integrity(read)


class TestCritBitSpecific:
    def test_shared_prefix_keys(self):
        kv = make_workload(CritBitKV)
        for k in (0b1000, 0b1001, 0b1011, 0b1111, 0b0111):
            kv.insert(k)
        kv.verify()

    def test_integrity_detects_bit_disorder(self):
        from repro.workloads.kv.ctree import HEADER as CT_HEADER
        from repro.workloads.kv.ctree import INTERNAL, NODE as CT_NODE

        kv = make_workload(CritBitKV)
        for k in keys_for(20):
            kv.insert(k)
        read = kv.reader()
        root = read(CT_HEADER.addr(kv.header, "root"))
        if read(CT_NODE.addr(root, "kind")) == INTERNAL:
            kv.rt.machine.raw_write(CT_NODE.addr(root, "f0"), 0)
            with pytest.raises(RecoveryError):
                kv.check_integrity(read)


class TestRadixSpecific:
    def test_near_collision_creates_chain(self):
        kv = make_workload(RadixKV)
        # Keys differing only in the last nibble force a deep chain.
        kv.insert(0xABCDEF01)
        kv.insert(0xABCDEF02)
        kv.verify()

    def test_integrity_detects_misplaced_leaf(self):
        from repro.workloads.kv.rtree import HEADER as RT_HEADER
        from repro.workloads.kv.rtree import INNER

        kv = make_workload(RadixKV)
        kv.insert(0x1234)
        kv.insert(0xFFFF_0000)
        read = kv.reader()
        root = read(RT_HEADER.addr(kv.header, "root"))
        slots = [read(INNER.addr(root, f"slot{i}")) for i in range(16)]
        used = [i for i, s in enumerate(slots) if s]
        free = [i for i, s in enumerate(slots) if not s]
        kv.rt.machine.raw_write(
            INNER.addr(root, f"slot{free[0]}"), slots[used[0]]
        )
        with pytest.raises(RecoveryError):
            kv.check_integrity(read)


class TestEngineFacade:
    def test_make_kv_backends(self):
        for name, cls in KV_BACKENDS.items():
            rt = PTx(Machine(SLPMT), policy=MANUAL)
            kv = make_kv(name, rt, value_bytes=64)
            assert isinstance(kv, cls)
            kv.insert(7)
            assert kv.lookup(7) is not None

    def test_unknown_backend_rejected(self):
        rt = PTx(Machine(SLPMT))
        with pytest.raises(ReproError):
            make_kv("splay", rt)

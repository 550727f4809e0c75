"""Property-based crash consistency (hypothesis).

The central soundness claim of the whole design: for ANY operation
stream, ANY scheme, and ANY crash point, post-crash recovery restores a
structure that satisfies its invariants and contains exactly the
committed keys with their committed values.
"""

import pytest
from hypothesis import HealthCheck, example, given, settings
from hypothesis import strategies as st

from repro.common.errors import PowerFailure
from repro.core.machine import Machine
from repro.core.schemes import FG, FG_LG, FG_LZ, SLPMT
from repro.recovery.engine import recover
from repro.runtime.hints import MANUAL, NO_ANNOTATIONS
from repro.runtime.ptx import PTx
from repro.workloads.avl import AVLTree
from repro.workloads.dlist import DoublyLinkedList
from repro.workloads.hashtable import HashTable
from repro.workloads.heap import MaxHeap
from repro.workloads.kv.btree import BTreeKV
from repro.workloads.kv.ctree import CritBitKV
from repro.workloads.kv.rtree import RadixKV
from repro.workloads.rbtree import RBTree

SCHEMES = {
    "SLPMT": (SLPMT, MANUAL),
    "FG": (FG, NO_ANNOTATIONS),
    "FG+LG": (FG_LG, MANUAL),
    "FG+LZ": (FG_LZ, MANUAL),
}

WORKLOADS = {
    "hashtable": HashTable,
    "rbtree": RBTree,
    "heap": MaxHeap,
    "avl": AVLTree,
    "kv-btree": BTreeKV,
    "kv-ctree": CritBitKV,
    "kv-rtree": RadixKV,
    "dlist": DoublyLinkedList,
}

COMMON_SETTINGS = settings(
    max_examples=25,
    deadline=None,
    suppress_health_check=[HealthCheck.too_slow],
)


def run_crash_experiment(workload_name, scheme_name, keys, crash_point,
                         *, from_bytes=False):
    scheme, policy = SCHEMES[scheme_name]
    machine = Machine(scheme)
    rt = PTx(machine, policy=policy)
    wl = WORKLOADS[workload_name](rt, value_bytes=32)
    crashed = False
    machine.schedule_crash_after_persists(crash_point)
    try:
        for key in keys:
            wl.insert(key)
    except PowerFailure:
        machine.crash()
        assert machine.pm._indexed  # a plain crash leaves pristine media
        machine.pm._indexed = not from_bytes
        recover(machine.pm, hooks=[wl])
        crashed = True
    else:
        machine.cancel_scheduled_crash()
    if crashed:
        # All *committed* inserts (tracked by the oracle) must survive
        # with their exact values, and the invariants must hold on the
        # durable image.
        wl.verify(durable=True)
    else:
        wl.verify()
    return crashed


@st.composite
def crash_case(draw):
    keys = draw(
        st.lists(
            st.integers(min_value=1, max_value=1 << 40),
            min_size=1,
            max_size=25,
            unique=True,
        )
    )
    crash_point = draw(st.integers(min_value=0, max_value=200))
    return keys, crash_point


@COMMON_SETTINGS
@given(case=crash_case(), scheme=st.sampled_from(sorted(SCHEMES)))
def test_hashtable_crash_consistency(case, scheme):
    keys, point = case
    run_crash_experiment("hashtable", scheme, keys, point)


@COMMON_SETTINGS
@given(case=crash_case(), scheme=st.sampled_from(sorted(SCHEMES)))
def test_rbtree_crash_consistency(case, scheme):
    keys, point = case
    run_crash_experiment("rbtree", scheme, keys, point)


@COMMON_SETTINGS
@given(case=crash_case())
def test_heap_crash_consistency(case):
    keys, point = case
    run_crash_experiment("heap", "SLPMT", keys, point)


@COMMON_SETTINGS
@given(case=crash_case())
def test_avl_crash_consistency(case):
    keys, point = case
    run_crash_experiment("avl", "SLPMT", keys, point)


#: kv-btree images whose crash lands after a split lowered a node's
#: ``n`` in the same transaction: rollback revives the slot past the new
#: ``n``, so a later store there must be logged.
BTREE_SPLIT_IMAGES = [
    ([2, 3, 4, 5, 6, 7, 8, 1], 55),  # key 1 shifts into the old root's slot 3
    ([1, 2, 3, 5, 6, 7, 8, 4], 45),  # key 4 shifts into it
]


@COMMON_SETTINGS
@given(
    case=crash_case(),
    backend=st.sampled_from(["kv-btree", "kv-ctree", "kv-rtree"]),
    scheme=st.sampled_from(sorted(SCHEMES)),
)
@example(case=BTREE_SPLIT_IMAGES[0], backend="kv-btree", scheme="SLPMT")
@example(case=BTREE_SPLIT_IMAGES[1], backend="kv-btree", scheme="SLPMT")
def test_kv_crash_consistency(case, backend, scheme):
    keys, point = case
    run_crash_experiment(backend, scheme, keys, point)


@pytest.mark.parametrize("scheme", sorted(SCHEMES))
@pytest.mark.parametrize("keys, point", BTREE_SPLIT_IMAGES)
def test_kv_btree_split_images_recover(keys, point, scheme):
    assert run_crash_experiment("kv-btree", scheme, keys, point)


@COMMON_SETTINGS
@given(case=crash_case())
def test_byte_log_recovery_consistency(case):
    """Recovery driven purely by the serialized PM log words (what a
    real controller sees) upholds the same guarantees."""
    keys, point = case
    run_crash_experiment("hashtable", "SLPMT", keys, point, from_bytes=True)


def run_mixed_crash_experiment(workload_name, keys, remove_choices, crash_point):
    """Insert/remove mix with a crash anywhere; the oracle tracks every
    committed mutation, so recovery must land exactly on it."""
    scheme, policy = SCHEMES["SLPMT"]
    machine = Machine(scheme)
    rt = PTx(machine, policy=policy)
    wl = WORKLOADS[workload_name](rt, value_bytes=32)
    machine.schedule_crash_after_persists(crash_point)
    crashed = False
    try:
        live = []
        for i, key in enumerate(keys):
            if live and remove_choices[i % len(remove_choices)]:
                wl.remove(live.pop(0))
            else:
                wl.insert(key)
                live.append(key)
    except PowerFailure:
        machine.crash()
        recover(machine.pm, hooks=[wl])
        crashed = True
    else:
        machine.cancel_scheduled_crash()
    wl.verify(durable=crashed)


@st.composite
def mixed_case(draw):
    keys = draw(
        st.lists(
            st.integers(min_value=1, max_value=1 << 40),
            min_size=2,
            max_size=20,
            unique=True,
        )
    )
    removes = draw(st.lists(st.booleans(), min_size=4, max_size=4))
    point = draw(st.integers(min_value=0, max_value=150))
    return keys, removes, point


@COMMON_SETTINGS
@given(case=mixed_case(),
       workload=st.sampled_from(
           ["hashtable", "rbtree", "avl", "dlist", "kv-ctree", "kv-rtree"]
       ))
def test_insert_remove_mix_crash_consistency(case, workload):
    keys, removes, point = case
    run_mixed_crash_experiment(workload, keys, removes, point)

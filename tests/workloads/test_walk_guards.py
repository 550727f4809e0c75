"""Cycle guards on the pointer walks need no oracle.

A served structure keeps its committed oracle in the resource manager,
so ``subject.expected`` stays empty until the service finishes.  A guard
sized by that oracle stopped every walk after 16 steps, while a legal
bucket chain holds up to ``MAX_LOAD * INITIAL_BUCKETS`` nodes before the
first resize.  The guard is now the heap's live-allocation count, which
no legal chain exceeds; a real cycle must still raise from every walk.
"""

import itertools

import pytest

from repro.common import units
from repro.common.errors import RecoveryError
from repro.service.model import Request
from repro.service.rm import make_resource_manager
from repro.workloads.avl import AVLTree
from repro.workloads.base import value_words_for_key
from repro.workloads.dlist import NODE as DL_NODE
from repro.workloads.dlist import DoublyLinkedList
from repro.workloads.hashtable import HEADER, INITIAL_BUCKETS, MAX_LOAD, NODE, HashTable, bucket_hash
from repro.workloads.multistruct import MultiStruct
from repro.workloads.rbtree import RBTree

from .conftest import keys_for, make_workload

#: Twenty keys that share bucket 3 of the initial table: a legal chain
#: (no resize before MAX_LOAD * INITIAL_BUCKETS keys) longer than 16.
BUCKET = 3
CHAIN_KEYS = [
    k for k in itertools.islice(itertools.count(1), 10_000)
    if bucket_hash(k, INITIAL_BUCKETS) == BUCKET
][:20]


def _committed_like_the_rm(cls):
    """Commit CHAIN_KEYS one put per transaction, the way the service's
    transaction manager drives the RM: the oracle lives in the RM."""
    subject = make_workload(cls, value_bytes=16)
    rm = make_resource_manager(subject)
    for seq, key in enumerate(CHAIN_KEYS):
        put = Request(0, seq, "put", (key,), (tuple(value_words_for_key(key, 2)),))
        with subject.rt.transaction():
            rm.apply_write(put)
        rm.commit_write(put)
    return subject, rm


@pytest.mark.parametrize("cls", [HashTable, MultiStruct])
def test_long_chain_served_without_oracle(cls):
    assert len(CHAIN_KEYS) == 20 and len(CHAIN_KEYS) < MAX_LOAD * INITIAL_BUCKETS
    subject, rm = _committed_like_the_rm(cls)
    assert subject.expected == {}
    # The first key sits at the far end of its 20-node chain.
    got = rm.read_get(Request(1, 0, "get", (CHAIN_KEYS[0],)))
    assert got == (tuple(value_words_for_key(CHAIN_KEYS[0], 2)),)
    scan = rm.read_scan(Request(1, 1, "scan", (0,), scan_count=len(CHAIN_KEYS)))
    assert [key for key, _ in scan] == sorted(CHAIN_KEYS)


def _link_chain_tail_to_head(ht):
    """raw_write a cycle into the long bucket: its tail node's ``next``
    points back at the bucket's head node."""
    read = ht.reader()
    table = read(HEADER.addr(ht.header, "table"))
    head = read(table + BUCKET * units.WORD_BYTES)
    node = head
    while read(NODE.addr(node, "next")):
        node = read(NODE.addr(node, "next"))
    ht.rt.machine.raw_write(NODE.addr(node, "next"), head)


def test_hashtable_cycle_raises_from_every_guarded_walk():
    ht, _ = _committed_like_the_rm(HashTable)
    _link_chain_tail_to_head(ht)
    absent = next(
        k for k in itertools.count(CHAIN_KEYS[-1] + 1)
        if bucket_hash(k, INITIAL_BUCKETS) == BUCKET
    )
    for durable in (False, True):
        read = ht.reader(durable=durable)
        if durable:
            ht.rt.machine.fence()
        with pytest.raises(RecoveryError, match="cycle"):
            ht._lookup(absent, read)
        with pytest.raises(RecoveryError, match="cycle"):
            ht.iter_keys(read)
        with pytest.raises(RecoveryError, match="cycle"):
            ht.check_integrity(read)
    # The simulated read paths walk the same guarded chain.
    with pytest.raises(RecoveryError, match="cycle"):
        ht.get(absent)
    with pytest.raises(RecoveryError, match="cycle"):
        ht.iter_keys(ht.rt.load)


def test_dlist_cycle_raises_from_every_walk():
    dl = make_workload(DoublyLinkedList)
    keys = sorted(keys_for(8))
    for k in keys:
        dl.insert(k)
    read = dl.reader()
    last = read(DL_NODE.addr(dl.head, "next"))
    while read(DL_NODE.addr(last, "next")):
        last = read(DL_NODE.addr(last, "next"))
    # The last node links back to the list's head sentinel.
    dl.rt.machine.raw_write(DL_NODE.addr(last, "next"), dl.head)
    with pytest.raises(RecoveryError, match="cycle"):
        dl._lookup(keys[-1] + 1, read)
    with pytest.raises(RecoveryError, match="cycle"):
        dl.get(keys[-1] + 1)
    with pytest.raises(RecoveryError):
        dl.iter_keys(read)
    with pytest.raises(RecoveryError):
        dl.check_integrity(read)


@pytest.mark.parametrize("cls", [RBTree, AVLTree])
def test_tree_cycle_raises_from_the_shared_walks(cls):
    tree = make_workload(cls)
    keys = sorted(keys_for(8))
    for k in keys:
        tree.insert(k)
    read = tree.reader()
    root = read(cls.HEADER.addr(tree.header, "root"))
    node = root
    while read(cls.NODE.addr(node, "right")):
        node = read(cls.NODE.addr(node, "right"))
    # The rightmost node's right child links back to the root.
    tree.rt.machine.raw_write(cls.NODE.addr(node, "right"), root)
    with pytest.raises(RecoveryError, match=f"^{tree.name}: search path too long"):
        tree._lookup(keys[-1] + 1, read)
    with pytest.raises(RecoveryError, match=f"^{tree.name}: node reachable twice"):
        tree.iter_keys(read)

"""Sharded serving memory is O(live) in the log: what a served
deployment retains per extra request stays small (``slow``: a few
seconds, run on every push), and its machines hold cache-set storage
only for the sets they filled.

Each node reclaims a local transaction's log records at its commit and
forgets a global transaction's protocol records once no recovery can
need them (a participant after its applied seal, the coordinator after
phase 2), and the PM keeps no entry object at all: a record is its
serialized words.
What still grows with the requests served is their responses, the
serialized log words, the start index and one byte per protocol step.
"""

import gc
import tracemalloc

import pytest

from repro.core.machine import Machine
from repro.core.schemes import SLPMT
from repro.mem.cache import SetAssocCache
from repro.service.tm import GroupCommitPolicy
from repro.shard.deployment import ShardedConfig, ShardedDeployment

#: Retained bytes per extra served request must stay below this (about
#: 607 today; 830 while every machine built all its cache sets and the
#: coordinator kept a string per protocol step, about 2,260 while every
#: 2PC record stayed live).
MAX_BYTES_PER_REQUEST = 700


def _config(requests_per_client):
    """Four shards under saturating traffic with 35% multi-key txns."""
    return ShardedConfig(
        num_shards=4,
        workload="hashtable",
        scheme="SLPMT",
        num_clients=6,
        requests_per_client=requests_per_client,
        value_bytes=32,
        num_keys=256,
        theta=0.6,
        mix={"put": 0.40, "get": 0.20, "scan": 0.05, "txn": 0.35},
        txn_keys=4,
        arrival_cycles=800,
        batch=GroupCommitPolicy(batch_size=8),
        seed=2023,
    )


def _serve(requests_per_client):
    """``(requests served, traced bytes the deployment retains after
    serving)``."""
    gc.collect()
    base = tracemalloc.get_traced_memory()[0]
    dep = ShardedDeployment(_config(requests_per_client))
    dep.serve()
    gc.collect()
    return dep.requests, tracemalloc.get_traced_memory()[0] - base


@pytest.mark.slow
def test_retained_memory_per_served_request():
    tracemalloc.start()
    try:
        _serve(5)  # lazy imports and caches, outside the measurement
        short_requests, short_bytes = _serve(50)
        long_requests, long_bytes = _serve(200)
    finally:
        tracemalloc.stop()
    assert long_requests > 3 * short_requests
    per_request = (long_bytes - short_bytes) / (long_requests - short_requests)
    assert per_request < MAX_BYTES_PER_REQUEST, f"{per_request:.1f} B per request"


def _allocated_sets(cache):
    return {index for index, s in enumerate(cache._sets) if s is not None}


def test_machines_hold_only_the_cache_sets_they_filled(monkeypatch):
    fresh = Machine(SLPMT)
    for cache in (fresh.l1, fresh.l2, fresh.l3):
        assert _allocated_sets(cache) == set()
    filled = {}
    insert = SetAssocCache.insert

    def spy(cache, line):
        filled.setdefault(id(cache), set()).add((line.addr >> 6) % cache.num_sets)
        return insert(cache, line)

    monkeypatch.setattr(SetAssocCache, "insert", spy)
    dep = ShardedDeployment(_config(10))
    dep.serve()
    caches = [
        cache
        for _, machine in dep.all_machines()
        for cache in (machine.l1, machine.l2, machine.l3)
    ]
    for cache in caches:
        assert _allocated_sets(cache) == filled.get(id(cache), set())
    allocated = sum(len(_allocated_sets(cache)) for cache in caches)
    assert 0 < allocated < sum(cache.num_sets for cache in caches) // 2

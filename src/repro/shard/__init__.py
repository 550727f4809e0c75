"""Sharded multi-system deployment with durable cross-shard 2PC.

The package scales the PR 6 transaction service out: the key space is
partitioned over N independent single-core systems (each its own
persistent memory, allocator, durable structure and resource manager), a
hash router sends single-key traffic to its home shard, and a
transaction coordinator runs presumed-abort two-phase commit for
multi-key transactions that span shards — with every protocol decision
persisted as a CRC-protected v1 log record in the participant's and the
coordinator's own PM log regions (:mod:`repro.mem.logregion` tags 5–8).

Modules:

* :mod:`repro.shard.router` — deterministic key → shard hashing;
* :mod:`repro.shard.twopc` — the coordinator, its durable decision
  records and the crash-step instrumentation the fuzz campaign drives;
* :mod:`repro.shard.deployment` — 2–8 shards, each the service's
  serving node plus its 2PC participant half, fed by the router with
  each client's traffic drawn on demand from the service's request and
  arrival streams;
* :mod:`repro.shard.recovery` — post-crash in-doubt resolution from the
  durable decision records;
* :mod:`repro.shard.bench` — the ``bench --twopc`` grid behind
  ``BENCH_twopc.json``.
"""

from repro.shard.router import HashRouter, home_shard
from repro.shard.twopc import (
    GTX_BASE,
    Coordinator,
    ShardUnavailable,
    StepTracker,
)
from repro.shard.deployment import ShardedConfig, ShardedDeployment
from repro.shard.recovery import ResolutionReport, recover_deployment

__all__ = [
    "GTX_BASE",
    "Coordinator",
    "HashRouter",
    "ResolutionReport",
    "ShardUnavailable",
    "ShardedConfig",
    "ShardedDeployment",
    "StepTracker",
    "home_shard",
    "recover_deployment",
]

"""The cross-shard 2PC bench grid and its artifact.

``python -m repro bench --twopc`` sweeps the sharded deployment over
(workload × scheme × transaction span) at a fixed shard count and
writes ``BENCH_twopc.json``: per-cell simulated cycles, PM bytes, the
2PC phase buckets (``prepare-persist`` / ``decide-persist``) and the
cross-shard commit counters, plus the protocol headline —
**amortization**, the drop in decision-persist cycles per committed
cross-shard key write between the narrowest and widest transaction
span.  A wider transaction touches more keys (and so more shards) per
global commit, but still pays one coordinator decision and one
decision/seal pair per participant — the per-write protocol overhead
falls as the span grows, which is exactly the selective-logging
argument applied to protocol records.

The grid runs a txn-heavy mix so cross-shard traffic dominates;
``txn_keys`` is the span axis (a ``txn`` draws 2..span distinct keys).

The grid itself is :data:`repro.obs.bench.TWOPC_GRID`: cells and
per-scheme geomeans follow the same shape as every bench grid, gated
at ±2% drift on every cell and geomean.
"""

from __future__ import annotations

import json
from typing import Any, Dict

#: Request mix for the grid: txn-heavy so the cross-shard protocol is
#: the dominant write path and the span axis has signal.
TWOPC_MIX: Dict[str, float] = {"put": 0.30, "get": 0.10, "scan": 0.05, "txn": 0.55}

#: The grid's parameters and defaults (``params`` of the artifact).
TWOPC_PARAMS: Dict[str, Any] = dict(
    # The FG baseline against the full design, over a hashtable (O(1)
    # paths) and an rbtree (pointer-chasing, rebalancing).
    workloads=("hashtable", "rbtree"),
    schemes=("FG", "SLPMT"),
    # Transaction-span axis (``txn_keys``): narrow spans barely cross
    # shards; wide spans touch most of the deployment per global
    # commit.  The amortization headline compares the first against
    # the last.
    spans=(2, 4, 8),
    num_shards=4,
    num_clients=6,
    requests_per_client=25,
    value_bytes=32,
    num_keys=48,
    theta=0.6,
    arrival_cycles=800,
    batch_size=8,
    max_wait_cycles=4000,
    seed=2023,
)


def twopc_cell(
    *,
    workload: str,
    scheme: str,
    txn_keys: int,
    num_shards: int,
    num_clients: int,
    requests_per_client: int,
    value_bytes: int,
    num_keys: int,
    theta: float,
    arrival_cycles: int,
    batch_size: int,
    max_wait_cycles: int,
    seed: int,
) -> Dict[str, Any]:
    """One ``BENCH_twopc.json`` cell: a full sharded-deployment run.

    The grid fixes the shard count and varies the transaction span
    (``txn_keys``); the cell carries the 2PC phase buckets and the
    decision-persist-per-cross-shard-write figure the amortization
    headline derives from.
    """
    from repro.service.tm import GroupCommitPolicy
    from repro.shard.deployment import ShardedConfig, run_sharded

    res = run_sharded(
        ShardedConfig(
            num_shards=num_shards,
            workload=workload,
            scheme=scheme,
            num_clients=num_clients,
            requests_per_client=requests_per_client,
            value_bytes=value_bytes,
            num_keys=num_keys,
            theta=theta,
            mix=dict(TWOPC_MIX),
            txn_keys=txn_keys,
            arrival_cycles=arrival_cycles,
            batch=GroupCommitPolicy(
                batch_size=batch_size, max_wait_cycles=max_wait_cycles
            ),
            seed=seed,
        )
    )
    return {
        "cycles": res.cycles,
        "pm_bytes": res.pm_bytes,
        "requests": res.requests,
        "acked": res.acked,
        "aborted": res.aborted,
        "reads": res.reads,
        "batches": res.batches,
        "committed_writes": res.committed_writes,
        "xshard_commits": res.xshard_commits,
        "xshard_aborts": res.xshard_aborts,
        "xshard_writes": res.xshard_writes,
        "prepare_retries": res.prepare_retries,
        "prepare_persist_cycles": res.prepare_persist_cycles,
        "decide_persist_cycles": res.decide_persist_cycles,
        "decide_persist_per_xwrite": round(res.decide_persist_per_xwrite, 3),
        "phases": dict(res.phases),
        "stats": json.loads(res.stats.to_json()),
    }

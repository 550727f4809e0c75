"""The service-latency bench grid and its artifact.

``python -m repro bench --service`` sweeps the transaction service over
(workload × scheme × group-commit batch size) and writes
``BENCH_service.json``: per-cell simulated cycles, PM bytes, request
latency quantiles (from the obs :class:`~repro.obs.histogram.
LogHistogram` the server feeds) and the commit-persist phase bucket,
plus the group-commit headline — **amortization**, the drop in
commit-persist cycles per committed write between batch size 1 and the
largest batch in the grid.

The grid deliberately runs a put-heavy mix with ``block`` admission so
every cell commits the identical request set: the batch-size axis then
isolates group commit, and the amortization ratios are apples-to-apples.

The grid itself is :data:`repro.obs.bench.SERVICE_GRID`: cells and
per-scheme geomeans follow the same shape as every bench grid, gated
at ±2% drift on every cell and geomean.
"""

from __future__ import annotations

import json
from typing import Any, Dict, Optional

#: Request mix for the grid: put-heavy so batch size 1 really means one
#: write per commit (``txn`` requests would smuggle mini-batches into
#: the baseline and flatten the amortization signal).
SERVICE_MIX: Dict[str, float] = {"put": 0.80, "get": 0.14, "scan": 0.06}

#: The grid's parameters and defaults (``params`` of the artifact).
SERVICE_PARAMS: Dict[str, Any] = dict(
    # The FG baseline against the full design, over a hashtable (O(1)
    # paths) and an rbtree (pointer-chasing, rebalancing).
    workloads=("hashtable", "rbtree"),
    schemes=("FG", "SLPMT"),
    # Batch-size axis: no batching, the default group, and a deep
    # group.  The amortization headline compares the first against the
    # last.
    batches=(1, 8, 16),
    num_clients=6,
    requests_per_client=25,
    value_bytes=32,
    # 48 keys over 150 requests: enough same-key pressure that deep
    # batches coalesce repeated lines, which is where group commit's
    # amortization comes from on the pointer-chasing structures.
    num_keys=48,
    theta=0.6,
    arrival_cycles=800,
    max_wait_cycles=4000,
    max_depth=64,
    seed=2023,
    duration_cycles=None,
    target_load=None,
)


def service_cell(
    *,
    workload: str,
    scheme: str,
    batch_size: int,
    num_clients: int,
    requests_per_client: int,
    value_bytes: int,
    num_keys: int,
    theta: float,
    arrival_cycles: int,
    max_wait_cycles: int,
    max_depth: int,
    seed: int,
    duration_cycles: "Optional[int]" = None,
    target_load: "Optional[float]" = None,
) -> Dict[str, Any]:
    """One ``BENCH_service.json`` cell: a full transaction-service run.

    The grid fixes ``block`` admission and :data:`SERVICE_MIX` so every
    batch size commits the identical request set; the cell carries the
    latency quantiles and the commit-persist bucket the amortization
    headline derives from.  With *duration_cycles* the cell runs in
    duration mode (the fixed request count is ignored); *target_load*
    spreads an offered load in requests/kcyc over the clients instead
    of ``arrival_cycles``.
    """
    from repro.service.admission import AdmissionPolicy
    from repro.service.server import ServiceConfig, run_service
    from repro.service.tm import GroupCommitPolicy

    res = run_service(
        ServiceConfig(
            workload=workload,
            scheme=scheme,
            num_clients=num_clients,
            requests_per_client=requests_per_client,
            value_bytes=value_bytes,
            num_keys=num_keys,
            theta=theta,
            mix=dict(SERVICE_MIX),
            arrival_cycles=arrival_cycles,
            batch=GroupCommitPolicy(
                batch_size=batch_size, max_wait_cycles=max_wait_cycles
            ),
            admission=AdmissionPolicy(max_depth=max_depth, mode="block"),
            seed=seed,
            duration_cycles=duration_cycles,
            target_load=target_load,
        )
    )
    return dict(
        run_totals(res),
        latency=res.latency.summary(),
        batch_occupancy=res.batch_occupancy.summary(),
        queue_depth=res.queue_depth.summary(),
    )


def run_totals(res: Any) -> Dict[str, Any]:
    """The simulated totals of one service run, shared by the bench
    cell and the ``serve --json`` document."""
    return {
        "cycles": res.cycles,
        "pm_bytes": res.pm_bytes,
        "requests": res.requests,
        "acked": res.acked,
        "shed": res.shed,
        "reads": res.reads,
        "batches": res.batches,
        "committed_writes": res.committed_writes,
        "commit_persist_cycles": res.commit_persist_cycles,
        "commit_persist_per_write": round(res.commit_persist_per_write, 3),
        "phases": dict(res.phases),
        "stats": json.loads(res.stats.to_json()),
    }

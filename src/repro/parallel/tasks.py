"""Top-level, spawn-safe task functions for the parallel engine.

Each function is one sweep cell: it receives plain picklable scalars,
rebuilds whatever simulator state it needs inside the worker process,
and returns a picklable result for the ordered merge.  The heavy
imports happen lazily inside the functions so a freshly spawned worker
pays the import cost once, on its first cell.

Every task honours the ``REPRO_POISON_CELL`` environment variable: when
it names the cell's label, the task raises.  Spawned workers inherit
the parent's environment, so the crash-propagation regression tests can
poison exactly one cell of a parallel sweep and assert that the CLI
exits non-zero instead of writing a partial artifact.
"""

from __future__ import annotations

import json
import os
import time
from typing import Any, Dict, List, Optional, Sequence, Tuple

#: Poison hook: a cell label that must crash (tests only).
POISON_ENV = "REPRO_POISON_CELL"


def _poison_check(label: str) -> None:
    if os.environ.get(POISON_ENV) == label:
        raise RuntimeError(f"cell {label!r} poisoned via {POISON_ENV}")


# ----------------------------------------------------------------------
# bench sweep
# ----------------------------------------------------------------------


def bench_cell(
    *,
    workload: str,
    scheme: str,
    num_ops: int,
    value_bytes: int,
    seed: int,
) -> Dict[str, Any]:
    """One ``BENCH_*.json`` cell: simulate and return the cell dict.

    ``host_ms`` is wall-clock and therefore non-deterministic by
    design; it is excluded from every gated comparison (see
    :func:`repro.obs.bench.strip_host`).
    """
    _poison_check(f"{workload}/{scheme}")
    from repro.harness.runner import cached_run

    t0 = time.perf_counter()
    res = cached_run(
        workload, scheme, num_ops=num_ops, value_bytes=value_bytes, seed=seed
    )
    host_ms = (time.perf_counter() - t0) * 1000.0
    return {
        "cycles": res.cycles,
        "pm_bytes": res.pm_bytes,
        "pm_log_bytes": res.pm_log_bytes,
        "pm_data_bytes": res.pm_data_bytes,
        "cycles_per_op": round(res.cycles_per_op, 3),
        "stats": json.loads(res.stats.to_json()),
        "host_ms": round(host_ms, 3),
    }


def multicore_bench_cell(
    *,
    workload: str,
    scheme: str,
    cores: int,
    theta: float,
    ops_per_core: int,
    num_keys: int,
    value_bytes: int,
    seed: int,
) -> Dict[str, Any]:
    """One ``BENCH_multicore.json`` cell: a shared-key contention run.

    Keyed by ``(workload, scheme, cores, θ, seed)`` — the whole run is
    deterministic from those, so the cell dict (minus ``host_ms``) is
    byte-identical between serial and ``--jobs N`` sweeps.
    """
    _poison_check(f"{workload}/{scheme}/c{cores}/t{theta:g}")
    from repro.harness.runner import run_contention

    t0 = time.perf_counter()
    res = run_contention(
        workload,
        scheme,
        cores=cores,
        theta=theta,
        ops_per_core=ops_per_core,
        num_keys=num_keys,
        value_bytes=value_bytes,
        seed=seed,
    )
    host_ms = (time.perf_counter() - t0) * 1000.0
    return {
        "cycles": res.cycles,
        "pm_bytes": res.pm_bytes,
        "conflicts": res.conflicts,
        "aborts": res.aborts,
        "commits": res.commits,
        "cycles_per_op": round(res.cycles_per_op, 3),
        "stats": json.loads(res.stats.to_json()),
        "host_ms": round(host_ms, 3),
    }


def service_bench_cell(
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

    The grid fixes ``block`` admission and the put-heavy service mix so
    every batch size commits the identical request set (see
    :mod:`repro.service.bench`); the cell carries the latency quantiles
    and the commit-persist bucket the amortization headline derives
    from.  With *duration_cycles* the cell runs in duration mode (the
    fixed request count is ignored); *target_load* spreads an offered
    load in requests/kcyc over the clients instead of ``arrival_cycles``.
    """
    _poison_check(f"{workload}/{scheme}/b{batch_size}")
    from repro.service.admission import AdmissionPolicy
    from repro.service.bench import SERVICE_MIX
    from repro.service.server import ServiceConfig, run_service
    from repro.service.tm import GroupCommitPolicy

    t0 = time.perf_counter()
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
    host_ms = (time.perf_counter() - t0) * 1000.0
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
        "latency": res.latency.summary(),
        "batch_occupancy": res.batch_occupancy.summary(),
        "queue_depth": res.queue_depth.summary(),
        "phases": dict(res.phases),
        "stats": json.loads(res.stats.to_json()),
        "host_ms": round(host_ms, 3),
    }


def twopc_bench_cell(
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
    headline derives from (see :mod:`repro.shard.bench`).
    """
    _poison_check(f"{workload}/{scheme}/k{txn_keys}")
    from repro.service.tm import GroupCommitPolicy
    from repro.shard.bench import TWOPC_MIX
    from repro.shard.deployment import ShardedConfig, run_sharded

    t0 = time.perf_counter()
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
    host_ms = (time.perf_counter() - t0) * 1000.0
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
        "host_ms": round(host_ms, 3),
    }


def model_train_cell(
    *,
    workload: str,
    scheme: str,
    num_ops: int,
    value_bytes: int,
    seed: int,
) -> Dict[str, Any]:
    """One cost-model training/validation cell: a profiled simulator run.

    Returns the phase buckets the fitter regresses against (they
    exactly partition ``cycles``) plus the totals the validator gates
    on.  Deterministic from its arguments; ``host_ms`` is the only
    non-simulated field (stripped before byte-identity checks).
    """
    _poison_check(f"model/{workload}/{scheme}/ops{num_ops}/vb{value_bytes}")
    from repro.core.schemes import scheme_by_name
    from repro.harness.runner import run_workload
    from repro.obs.profiler import PHASES, CycleProfiler

    t0 = time.perf_counter()
    profiler = CycleProfiler()
    res = run_workload(
        workload,
        scheme_by_name(scheme),
        num_ops=num_ops,
        value_bytes=value_bytes,
        seed=seed,
        profiler=profiler,
    )
    host_ms = (time.perf_counter() - t0) * 1000.0
    return {
        "cycles": res.cycles,
        "pm_bytes": res.pm_bytes,
        "phases": {p: profiler.phase_cycles.get(p, 0) for p in PHASES},
        "host_ms": round(host_ms, 3),
    }


def runner_cell(*, key: "Tuple") -> Any:
    """Warm one :func:`repro.harness.runner.cached_run` memo entry.

    *key* is a :func:`repro.harness.runner.cache_key` tuple; the
    returned :class:`~repro.harness.runner.RunResult` is seeded into
    the parent's memo so the figure-regeneration benchmarks reuse it.
    """
    _poison_check(f"{key[0]}/{key[1]}")
    from repro.harness.runner import _cached

    return _cached(*key)


# ----------------------------------------------------------------------
# crash campaigns (every fuzz family)
# ----------------------------------------------------------------------


def campaign_cell(*, cell, **kwargs) -> Any:
    """One campaign cell of any fuzz family: its full crash-point sweep
    (the cell's type selects the family)."""
    _poison_check(str(cell))
    from repro.fuzz.kernel import run_cell

    return run_cell(cell, **kwargs)


# ----------------------------------------------------------------------
# observed runs (trace export)
# ----------------------------------------------------------------------


def trace_cell(
    *,
    workload: str,
    scheme: str,
    num_ops: int,
    value_bytes: int,
    seed: int,
    capacity: int = 100_000,
) -> Dict[str, Any]:
    """One observed run; returns the tracer ring as picklable dicts.

    :func:`repro.parallel.merge.rewrap_tracers` rebuilds real
    :class:`~repro.core.tracing.Tracer` objects from these payloads in
    submission order, so the merged Perfetto document is byte-identical
    to one exported from the same runs done serially.
    """
    _poison_check(f"{workload}/{scheme}")
    from repro.obs.run import observed_run

    run = observed_run(
        workload,
        scheme,
        num_ops=num_ops,
        value_bytes=value_bytes,
        seed=seed,
        capacity=capacity,
    )
    return {
        "events": [e.to_dict() for e in run.tracer.events()],
        "total_emitted": run.tracer.total_emitted,
        "capacity": run.tracer.capacity,
    }


# ----------------------------------------------------------------------
# throughput-vs-latency curve sweep
# ----------------------------------------------------------------------


def curve_cell(
    *,
    scheme: str,
    arrival_cycles: int,
    workload: str,
    seed: int,
    duration_cycles: "Optional[int]" = None,
) -> Dict[str, Any]:
    """One load point of a throughput-vs-latency curve.

    Deterministic from its arguments (the telemetry windowing and
    steady-state detection are pure functions of the simulated run), so
    serial and ``--jobs N`` sweeps merge byte-identically.  With
    *duration_cycles* the cell runs in duration mode (arrivals stop at
    the horizon) instead of a fixed request count.
    """
    _poison_check(f"curve/{scheme}/a{arrival_cycles}")
    from repro.service.curve import run_curve_cell

    t0 = time.perf_counter()
    cell = run_curve_cell(
        scheme, arrival_cycles, workload=workload, seed=seed,
        duration_cycles=duration_cycles,
    )
    cell["host_ms"] = round((time.perf_counter() - t0) * 1000.0, 3)
    return cell


# ----------------------------------------------------------------------
# sustained service load (sharded client populations)
# ----------------------------------------------------------------------


def sustained_population_cell(
    *,
    population: int,
    client_base: int,
    workload: str,
    scheme: str,
    clients: int,
    value_bytes: int,
    num_keys: int,
    theta: float,
    arrival_cycles: int,
    batch_size: int,
    duration_cycles: int,
    window_cycles: int,
    seed: int,
    locking: bool = False,
    target_load: "Optional[float]" = None,
) -> Dict[str, Any]:
    """One client population of a sustained run: a full duration-mode
    service with its own machine, clock and telemetry registry.

    The population slice is identified purely by ``client_base``: every
    stream and arrival seed hashes the *global* client id, so the same
    population simulated serially or in a worker process produces the
    identical request sequence.  The telemetry registry comes back as
    its ``to_dict`` form; the parent folds the per-population
    registries in population order via
    :func:`repro.obs.telemetry.merge_telemetry`, which is the same
    byte-identical ordered-merge contract every other sweep honours.
    """
    _poison_check(f"sustained/p{population}")
    from repro.obs.telemetry import TelemetryWindows
    from repro.service.server import ServiceConfig, run_service
    from repro.service.tm import GroupCommitPolicy

    t0 = time.perf_counter()
    telemetry = TelemetryWindows(window_cycles)
    res = run_service(
        ServiceConfig(
            workload=workload,
            scheme=scheme,
            num_clients=clients,
            client_base=client_base,
            value_bytes=value_bytes,
            num_keys=num_keys,
            theta=theta,
            mode="open",
            arrival_cycles=arrival_cycles,
            duration_cycles=duration_cycles,
            target_load=target_load,
            locking=locking,
            keep_responses=False,
            batch=GroupCommitPolicy(batch_size=batch_size),
            seed=seed,
        ),
        telemetry=telemetry,
    )
    host_ms = (time.perf_counter() - t0) * 1000.0
    return {
        "population": population,
        "client_base": client_base,
        "clients": clients,
        "requests": res.requests,
        "acked": res.acked,
        "shed": res.shed,
        "reads": res.reads,
        "batches": res.batches,
        "committed_writes": res.committed_writes,
        "cycles": res.cycles,
        "pm_bytes": res.pm_bytes,
        "lock_grants": res.lock_grants,
        "lock_wounds": res.lock_wounds,
        "lock_waits": res.lock_waits,
        "telemetry": telemetry.to_dict(),
        "host_ms": round(host_ms, 3),
    }

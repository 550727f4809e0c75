"""Campaign-scale sustained service load: sharded client populations.

One sustained run is *P* client populations served concurrently, one
:class:`~repro.service.server.TransactionService` per population.  Every
population gets the same :class:`~repro.service.server.ServiceConfig`
scalars and the same seed but a disjoint global client-id slice
(``client_base = p * clients_per_population``); streams and arrival
times hash the global client id, so the populations generate disjoint,
collision-free traffic and the whole run is a pure function of the
document parameters.

Populations are independent simulated machines (each with its own clock
starting at zero), which is exactly what lets the run ride the parallel
engine: each population is one :func:`population_cell`, and the parent
folds the per-population :class:`~repro.obs.telemetry.TelemetryWindows`
registries **in population order** via
:func:`~repro.obs.telemetry.merge_telemetry` — the byte-identical
ordered-merge contract every other sweep honours, so a ``--jobs N`` run
produces the same artifact as a serial one, byte for byte.

Duration mode does the sizing: every population serves until the
simulated clock passes ``duration_cycles`` (arrivals stop at the
horizon, the queue drains), so total request volume scales with the
horizon instead of a fixed per-client count.  The artifact quotes the
steady-state throughput of the *merged* registry with the straddled
tail window trimmed (:func:`~repro.obs.steady.steady_summary` with
``horizon_cycles``).

The checked-in artifact lives at
``benchmarks/results/sustained_service.json`` and is gated by
``python -m repro bench --sustained --check`` (exact compare, modulo
host timing) and ``python -m repro obs equivalence --sustained``
(serial vs ``--jobs N`` byte-identity on a reduced shape).
"""

from __future__ import annotations

import hashlib
import json
import time
from typing import Any, Dict, Optional

from repro.obs.steady import steady_summary
from repro.obs.telemetry import TelemetryWindows, merge_telemetry

#: Default sustained shape: 4 populations x 8 clients at ~75% of the
#: service's measured capacity (~1.1 req/kcyc on this shape), run for
#: 320M cycles — just over a million requests total, the smallest run
#: that exercises campaign-scale volume while staying CI-affordable to
#: regenerate.
DEFAULT_POPULATIONS = 4
DEFAULT_CLIENTS_PER_POPULATION = 8
DEFAULT_SUSTAINED_WORKLOAD = "hashtable"
DEFAULT_SUSTAINED_SCHEME = "SLPMT"
DEFAULT_SUSTAINED_VALUE_BYTES = 32
DEFAULT_SUSTAINED_KEYS = 128
DEFAULT_SUSTAINED_THETA = 0.6
DEFAULT_SUSTAINED_ARRIVAL = 9600
DEFAULT_SUSTAINED_BATCH = 8
DEFAULT_SUSTAINED_DURATION = 320_000_000
DEFAULT_SUSTAINED_SEED = 2023

#: Per-population recording granularity; the merged registry is
#: rebinned to ~:data:`TARGET_SUSTAINED_WINDOWS` windows for the
#: checked-in series and the steady detection.
SUSTAINED_WINDOW_CYCLES = 262_144
TARGET_SUSTAINED_WINDOWS = 24

#: Document params that shape the deployment rather than each service.
_SHAPE_PARAMS = ("populations", "clients_per_population", "num_clients")

#: Counters every population cell carries into the artifact totals.
_TOTAL_FIELDS = (
    "requests",
    "acked",
    "shed",
    "reads",
    "batches",
    "committed_writes",
    "pm_bytes",
    "lock_grants",
    "lock_wounds",
    "lock_waits",
)


def population_cell(
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
    its ``to_dict`` form for the parent's ordered merge.
    """
    from repro.service.server import ServiceConfig, run_service
    from repro.service.tm import GroupCommitPolicy

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
    }


def run_sustained(
    *,
    populations: int = DEFAULT_POPULATIONS,
    clients_per_population: int = DEFAULT_CLIENTS_PER_POPULATION,
    workload: str = DEFAULT_SUSTAINED_WORKLOAD,
    scheme: str = DEFAULT_SUSTAINED_SCHEME,
    value_bytes: int = DEFAULT_SUSTAINED_VALUE_BYTES,
    num_keys: int = DEFAULT_SUSTAINED_KEYS,
    theta: float = DEFAULT_SUSTAINED_THETA,
    arrival_cycles: int = DEFAULT_SUSTAINED_ARRIVAL,
    target_load: "Optional[float]" = None,
    batch_size: int = DEFAULT_SUSTAINED_BATCH,
    duration_cycles: int = DEFAULT_SUSTAINED_DURATION,
    window_cycles: int = SUSTAINED_WINDOW_CYCLES,
    locking: bool = False,
    seed: int = DEFAULT_SUSTAINED_SEED,
    jobs: int = 1,
    progress=None,
) -> Dict[str, Any]:
    """Run one sustained deployment and build its artifact document.

    *target_load* is the offered load in requests per kilocycle **per
    population** (spread over its clients); it overrides
    *arrival_cycles* exactly as
    :attr:`~repro.service.server.ServiceConfig.effective_arrival_cycles`
    documents.  Everything in the returned document except the ``host``
    block is simulated and deterministic from the arguments.
    """
    if populations < 1:
        raise ValueError("populations must be at least 1")
    from repro.obs.bench import SCHEMA_VERSION, strip_host
    from repro.parallel.tasks import run_sweep

    params = {
        "populations": populations,
        "clients_per_population": clients_per_population,
        "num_clients": populations * clients_per_population,
        "workload": workload,
        "scheme": scheme,
        "value_bytes": value_bytes,
        "num_keys": num_keys,
        "theta": theta,
        "arrival_cycles": arrival_cycles,
        "target_load": target_load,
        "batch_size": batch_size,
        "duration_cycles": duration_cycles,
        "window_cycles": window_cycles,
        "locking": locking,
        "seed": seed,
    }
    # Every population cell gets the service knobs; only its slice of
    # the global client-id space differs.
    knobs = {k: v for k, v in params.items() if k not in _SHAPE_PARAMS}
    t0 = time.perf_counter()
    cells = run_sweep(
        population_cell,
        {
            f"sustained/p{p}": dict(
                knobs,
                population=p,
                client_base=p * clients_per_population,
                clients=clients_per_population,
            )
            for p in range(populations)
        },
        jobs=jobs,
        progress=progress,
    )
    host_seconds = time.perf_counter() - t0

    # Ordered merge: population 0 first, always — the same contract the
    # parallel bench sweeps honour, so serial and --jobs N agree.
    registries = [
        TelemetryWindows.from_dict(cell.pop("telemetry")) for cell in cells
    ]
    merged = merge_telemetry(registries)
    #: Exact fingerprint of the *fine* merged registry: the checked-in
    #: document only carries the rebinned series, so this digest is what
    #: pins the byte-identical merge at full resolution.
    telemetry_sha256 = hashlib.sha256(
        json.dumps(merged.to_dict(), sort_keys=True).encode()
    ).hexdigest()
    rebinned = merged.rebinned(
        max(1, merged.num_windows // TARGET_SUSTAINED_WINDOWS)
    )
    steady = steady_summary(rebinned, horizon_cycles=duration_cycles)

    totals = {
        name: sum(cell[name] for cell in cells) for name in _TOTAL_FIELDS
    }
    return {
        "kind": "sustained",
        "schema_version": SCHEMA_VERSION,
        "params": params,
        "totals": totals,
        "per_population": strip_host(cells),
        "steady": steady,
        "acked_series": rebinned.series("acked"),
        "series_window_cycles": rebinned.window_cycles,
        "telemetry_sha256": telemetry_sha256,
        "host": {
            "seconds": round(host_seconds, 3),
            "jobs": jobs,
        },
    }


def format_sustained(doc: Dict[str, Any]) -> str:
    """Human-readable summary of a sustained-run document."""
    params = doc["params"]
    totals = doc["totals"]
    steady = doc["steady"]
    lat = steady["latency"]
    lines = [
        f"--- sustained service load ({params['workload']}/"
        f"{params['scheme']}, seed {params['seed']}) ---",
        f"  {params['populations']} populations x "
        f"{params['clients_per_population']} clients, "
        f"duration {params['duration_cycles']:,} cycles, "
        f"arrival {params['arrival_cycles']} "
        + (
            f"(target load {params['target_load']:g}/kcyc/pop), "
            if params.get("target_load")
            else ""
        )
        + f"batch<={params['batch_size']}"
        + (", locking" if params.get("locking") else ""),
        f"  served {totals['acked']:,}/{totals['requests']:,} requests "
        f"({totals['reads']:,} reads, {totals['committed_writes']:,} "
        f"committed writes in {totals['batches']:,} group commits, "
        f"{totals['shed']:,} shed)",
        f"  steady throughput {steady['throughput_kcyc']:g}/kcyc over "
        f"windows [{steady['window_lo']}, {steady['window_hi']}) of "
        f"{steady['windows_total']} "
        f"({'settled' if steady['steady'] else 'NOT settled'}), "
        f"latency p50={lat['p50']:,} p95={lat['p95']:,} p99={lat['p99']:,}",
    ]
    if params.get("locking"):
        lines.append(
            f"  lock manager: {totals['lock_grants']:,} grants, "
            f"{totals['lock_wounds']:,} wounds, "
            f"{totals['lock_waits']:,} waits"
        )
    lines.append(f"  telemetry sha256 {doc['telemetry_sha256'][:16]}…")
    return "\n".join(lines)

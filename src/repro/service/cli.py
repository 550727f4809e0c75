"""The ``python -m repro serve`` front end.

One deterministic transaction-service run with the full report: request
totals, latency quantiles, group-commit amortization and the cycle
attribution of the serving window::

    python -m repro serve --scheme SLPMT --batch-size 8
    python -m repro serve --workload rbtree --mode closed --think 500
    python -m repro serve --admission shed --queue-depth 8 --json out.json

Sustained modes: ``--duration CYCLES`` runs until the simulated clock
passes the horizon instead of a fixed request count, ``--target-load
R`` offers R requests per kilocycle spread over the clients, and
``--populations P`` fans the run out into P sharded client populations
(one service per worker with ``--jobs``), merging their telemetry::

    python -m repro serve --duration 2000000 --target-load 0.8
    python -m repro serve --populations 4 --duration 1000000 --jobs 4

The grid sweep + regression gate lives under ``python -m repro bench
--service`` (see :mod:`repro.service.bench`); the checked-in sustained
artifact under ``python -m repro bench --sustained``.
"""

from __future__ import annotations

import argparse
from typing import List, Optional

from repro.obs.bench import write_artifact
from repro.service.admission import FAIRNESS, MODES, AdmissionPolicy
from repro.service.bench import run_totals
from repro.service.model import DEFAULT_MIX
from repro.service.server import (
    CLIENT_MODES,
    ServiceConfig,
    ServiceResult,
    run_service,
)
from repro.service.tm import GroupCommitPolicy


def _hist_doc(hist) -> dict:
    """Quantile summary plus the full occupied buckets, so external
    tooling can re-derive any quantile (not just p50/p95/p99)."""
    doc = hist.summary()
    doc["sub_buckets"] = hist.sub_buckets
    doc["buckets"] = [
        [lo, hi, count] for lo, hi, count in hist.buckets()
    ]
    return doc


def _result_doc(res: ServiceResult) -> dict:
    """A diffable JSON document for one run (no host timing)."""
    return {
        "workload": res.workload,
        "scheme": res.scheme,
        "mode": res.mode,
        "num_clients": res.num_clients,
        "requests_per_client": res.requests_per_client,
        "batch_size": res.batch_size,
        "max_wait_cycles": res.max_wait_cycles,
        "max_depth": res.max_depth,
        "admission_mode": res.admission_mode,
        "fairness": res.fairness,
        "theta": res.theta,
        "num_keys": res.num_keys,
        "value_bytes": res.value_bytes,
        "seed": res.seed,
        **run_totals(res),
        "latency": _hist_doc(res.latency),
        "batch_occupancy": _hist_doc(res.batch_occupancy),
        "queue_depth": _hist_doc(res.queue_depth),
        "duration_cycles": res.duration_cycles,
        "client_base": res.client_base,
        "lock_grants": res.lock_grants,
        "lock_wounds": res.lock_wounds,
        "lock_waits": res.lock_waits,
    }


def serve_main(argv: "Optional[List[str]]" = None) -> int:
    parser = argparse.ArgumentParser(
        prog="python -m repro serve",
        description="Serve simulated clients against a durable structure "
        "through the group-committing transaction service.",
    )
    parser.add_argument("--workload", default="hashtable")
    parser.add_argument("--scheme", default="SLPMT")
    parser.add_argument("--clients", type=int, default=4)
    parser.add_argument("--requests", type=int, default=25,
                        help="requests per client")
    parser.add_argument("--value-bytes", type=int, default=64)
    parser.add_argument("--num-keys", type=int, default=64)
    parser.add_argument("--theta", type=float, default=0.0,
                        help="zipfian key skew")
    parser.add_argument("--mode", choices=CLIENT_MODES, default="open")
    parser.add_argument("--arrival", type=int, default=3000,
                        help="open-loop mean interarrival cycles per client")
    parser.add_argument("--think", type=int, default=1500,
                        help="closed-loop think cycles")
    parser.add_argument("--batch-size", type=int,
                        default=GroupCommitPolicy.batch_size)
    parser.add_argument("--max-wait", type=int,
                        default=GroupCommitPolicy.max_wait_cycles,
                        help="group-commit flush deadline in cycles")
    parser.add_argument("--queue-depth", type=int,
                        default=AdmissionPolicy.max_depth)
    parser.add_argument("--admission", choices=MODES,
                        default=AdmissionPolicy.mode,
                        help="full-queue behaviour")
    parser.add_argument("--fairness", choices=FAIRNESS,
                        default=AdmissionPolicy.fairness,
                        help="batch-fill discipline")
    parser.add_argument("--seed", type=int, default=2023)
    parser.add_argument(
        "--duration", type=int, default=None, metavar="CYCLES",
        help="duration mode: serve until the simulated clock passes this "
        "horizon (arrivals stop there, the queue drains); --requests is "
        "ignored",
    )
    parser.add_argument(
        "--target-load", type=float, default=None, metavar="REQS_PER_KCYC",
        help="offered load in requests per 1000 cycles spread over the "
        "clients (open mode; overrides --arrival)",
    )
    parser.add_argument(
        "--locking", action="store_true",
        help="route write batches through the wound-wait lock manager "
        "over the workload's named structures",
    )
    parser.add_argument(
        "--populations", type=int, default=None, metavar="P",
        help="sustained mode: fan out into P sharded client populations "
        "(each --clients wide, disjoint global client ids) and merge "
        "their telemetry; requires --duration, honours --jobs",
    )
    parser.add_argument("--json", help="write the diffable run document here")
    parser.add_argument(
        "--windows", type=int, metavar="CYCLES",
        help="attach windowed telemetry at this window width and report "
        "the per-window throughput/latency table",
    )
    parser.add_argument(
        "--curve", action="store_true",
        help="sweep arrival rates per scheme and report the "
        "throughput-vs-latency curve (knee marked); --json writes the "
        "curve document, --table the gnuplot table",
    )
    parser.add_argument(
        "--curve-schemes", default=None, metavar="A,B",
        help="comma-separated schemes for --curve",
    )
    parser.add_argument(
        "--curve-arrivals", default=None, metavar="N,N,...",
        help="comma-separated mean interarrival cycles for --curve",
    )
    parser.add_argument(
        "--table", help="write the gnuplot curve table here (--curve only)"
    )
    parser.add_argument(
        "--jobs", type=int, default=None,
        help="parallel workers for --curve / --populations "
        "(default: serial)",
    )
    args = parser.parse_args(argv)

    if args.curve:
        return _curve_main(args)
    if args.populations is not None:
        return _sustained_main(args)

    telemetry = None
    if args.windows is not None:
        from repro.obs.telemetry import TelemetryWindows

        telemetry = TelemetryWindows(window_cycles=args.windows)

    res = run_service(
        ServiceConfig(
            workload=args.workload,
            scheme=args.scheme,
            num_clients=args.clients,
            requests_per_client=args.requests,
            value_bytes=args.value_bytes,
            num_keys=args.num_keys,
            theta=args.theta,
            mix=dict(DEFAULT_MIX),
            mode=args.mode,
            arrival_cycles=args.arrival,
            think_cycles=args.think,
            batch=GroupCommitPolicy(
                batch_size=args.batch_size, max_wait_cycles=args.max_wait
            ),
            admission=AdmissionPolicy(
                max_depth=args.queue_depth,
                mode=args.admission,
                fairness=args.fairness,
            ),
            seed=args.seed,
            duration_cycles=args.duration,
            target_load=args.target_load,
            locking=args.locking,
        ),
        telemetry=telemetry,
    )

    if args.json:
        doc = _result_doc(res)
        if telemetry is not None:
            doc["telemetry"] = telemetry.to_dict()
        write_artifact(args.json, doc)
        print(f"wrote {args.json}")
        return 0

    shape = (
        f"duration {res.duration_cycles:,} cycles"
        if res.duration_cycles is not None
        else f"{res.requests_per_client} requests each"
    )
    print(
        f"{res.workload}/{res.scheme} {res.mode}-loop: "
        f"{res.num_clients} clients, {shape}, "
        f"batch<={res.batch_size} wait<={res.max_wait_cycles}, "
        f"queue<={res.max_depth} ({res.admission_mode}/{res.fairness})"
    )
    if res.lock_grants or res.lock_wounds or res.lock_waits:
        print(
            f"  lock manager: {res.lock_grants} grants, "
            f"{res.lock_wounds} wounds, {res.lock_waits} waits"
        )
    print(
        f"  served {res.acked}/{res.requests} "
        f"({res.reads} reads, {res.committed_writes} committed writes in "
        f"{res.batches} group commits, {res.shed} shed) "
        f"in {res.cycles:,} cycles / {res.pm_bytes:,} PM bytes"
    )
    lat = res.latency.summary()
    if lat["count"]:
        print(
            f"  latency cycles: p50={lat['p50']:,} p95={lat['p95']:,} "
            f"p99={lat['p99']:,} max={lat['max']:,} (n={lat['count']})"
        )
    occ = res.batch_occupancy.summary()
    if occ["count"]:
        print(
            f"  group commit: mean occupancy {occ['mean']:.1f} "
            f"(p50={occ['p50']}, max={occ['max']}), "
            f"commit-persist {res.commit_persist_cycles:,} cycles "
            f"= {res.commit_persist_per_write:,.1f}/write"
        )
    total = sum(res.phases.values())
    if total:
        top = sorted(res.phases.items(), key=lambda kv: -kv[1])[:4]
        print(
            "  phase attribution: "
            + "  ".join(
                f"{name}={cycles:,} ({100.0 * cycles / total:.0f}%)"
                for name, cycles in top
                if cycles
            )
        )
    if telemetry is not None:
        print(telemetry.format())
    return 0


def _curve_main(args) -> int:
    """The ``serve --curve`` arrival-rate sweep."""
    from repro.parallel.engine import resolve_jobs
    from repro.service.curve import (
        DEFAULT_CURVE_ARRIVALS,
        DEFAULT_CURVE_SCHEMES,
        curve_to_table,
        format_curve,
        run_curve,
    )

    schemes = (
        tuple(s.strip() for s in args.curve_schemes.split(",") if s.strip())
        if args.curve_schemes
        else DEFAULT_CURVE_SCHEMES
    )
    arrivals = (
        tuple(int(a) for a in args.curve_arrivals.split(",") if a.strip())
        if args.curve_arrivals
        else DEFAULT_CURVE_ARRIVALS
    )
    doc = run_curve(
        schemes=schemes,
        arrivals=arrivals,
        workload=args.workload,
        seed=args.seed,
        jobs=resolve_jobs(args.jobs),
        duration_cycles=args.duration,
    )
    wrote = False
    if args.json:
        write_artifact(args.json, doc)
        print(f"wrote {args.json}")
        wrote = True
    if args.table:
        with open(args.table, "w") as fh:
            fh.write(curve_to_table(doc))
        print(f"wrote {args.table}")
        wrote = True
    if not wrote:
        print(format_curve(doc))
    return 0


def _sustained_main(args) -> int:
    """The ``serve --populations P`` sharded-population fan-out."""
    from repro.parallel.engine import resolve_jobs
    from repro.service.sustained import format_sustained, run_sustained

    if args.duration is None:
        raise SystemExit("--populations requires --duration")
    if args.mode != "open":
        raise SystemExit("--populations requires the open client loop")
    doc = run_sustained(
        populations=args.populations,
        clients_per_population=args.clients,
        workload=args.workload,
        scheme=args.scheme,
        value_bytes=args.value_bytes,
        num_keys=args.num_keys,
        theta=args.theta,
        arrival_cycles=args.arrival,
        target_load=args.target_load,
        batch_size=args.batch_size,
        duration_cycles=args.duration,
        locking=args.locking,
        seed=args.seed,
        jobs=resolve_jobs(args.jobs),
    )
    if args.json:
        write_artifact(args.json, doc)
        print(f"wrote {args.json}")
        return 0
    print(format_sustained(doc))
    return 0

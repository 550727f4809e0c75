"""The ``python -m repro obs`` and ``python -m repro bench`` front ends.

Observability subcommands::

    python -m repro obs stats --workload hashtable --scheme SLPMT
    python -m repro obs stats ... --json run.json     # diffable snapshot
    python -m repro obs hist  --workload rbtree --scheme FG+LG
    python -m repro obs trace --cores 4 --ops 50 --out trace.json
    python -m repro obs trace ... --jsonl events.jsonl
    python -m repro obs diff a.json b.json            # two-run diff
    python -m repro obs passivity                     # CI gate, exit 1 on drift

Bench artifacts and the perf-regression gate::

    python -m repro bench                    # run + print the sweep
    python -m repro bench --update           # re-pin BENCH_slpmt_ycsb.json
    python -m repro bench --check            # fail on drift vs the baseline
    python -m repro bench --multicore        # shared-key contention grid
    python -m repro bench --multicore --cores 1,2,4 --check
    python -m repro bench --twopc            # cross-shard 2PC grid
    python -m repro bench --twopc --check    # gate vs BENCH_twopc.json
"""

from __future__ import annotations

import argparse
import json
import sys
from typing import Any, Dict, List

from repro.obs import bench as bench_mod
from repro.obs.run import observed_multicore_ycsb, observed_run
from repro.obs.trace import (
    validate_chrome_trace,
    write_chrome_trace,
    write_jsonl,
)
from repro.parallel.engine import WorkerCrash, print_progress, resolve_jobs


def _add_run_args(parser: argparse.ArgumentParser) -> None:
    parser.add_argument("--workload", default="hashtable")
    parser.add_argument("--scheme", default="SLPMT")
    parser.add_argument("--ops", type=int, default=1000)
    parser.add_argument("--value-bytes", type=int, default=256)
    parser.add_argument("--seed", type=int, default=2023)


def _cmd_stats(args: argparse.Namespace) -> int:
    run = observed_run(
        args.workload,
        args.scheme,
        num_ops=args.ops,
        value_bytes=args.value_bytes,
        seed=args.seed,
    )
    if args.json:
        with open(args.json, "w") as fh:
            json.dump(run.to_doc(), fh, indent=1, sort_keys=True)
            fh.write("\n")
        print(f"wrote {args.json}")
        return 0
    print(
        f"{args.workload}/{args.scheme}: {run.result.cycles:,} cycles, "
        f"{run.result.pm_bytes:,} PM bytes over {args.ops} ops"
    )
    print(run.result.stats.report(show_zero=args.show_zero))
    print(run.profiler.format())
    return 0


def _cmd_hist(args: argparse.Namespace) -> int:
    run = observed_run(
        args.workload,
        args.scheme,
        num_ops=args.ops,
        value_bytes=args.value_bytes,
        seed=args.seed,
    )
    print(f"{args.workload}/{args.scheme} distributions ({args.ops} ops)")
    header = f"{'histogram':<18} {'n':>8} {'mean':>12} {'p50':>10} {'p95':>10} {'p99':>10} {'max':>10}"
    print(header)
    print("-" * len(header))
    for name, hist in sorted(run.profiler.histograms.items()):
        if hist.count == 0:
            continue
        s = hist.summary()
        print(
            f"{name:<18} {s['count']:>8} {s['mean']:>12} {s['p50']:>10} "
            f"{s['p95']:>10} {s['p99']:>10} {s['max']:>10}"
        )
    return 0


def _cmd_trace(args: argparse.Namespace) -> int:
    system = observed_multicore_ycsb(
        num_cores=args.cores,
        scheme=args.scheme,
        ops_per_core=args.ops,
        value_bytes=args.value_bytes,
        seed=args.seed,
    )
    doc = write_chrome_trace(
        args.out,
        system.tracers(),
        metadata={
            "scheme": args.scheme,
            "cores": args.cores,
            "ops_per_core": args.ops,
            "seed": args.seed,
        },
    )
    problems = validate_chrome_trace(doc)
    if problems:
        for problem in problems:
            print(f"INVALID: {problem}", file=sys.stderr)
        return 1
    merged = system.merged_profiler()
    print(
        f"wrote {args.out}: {len(doc['traceEvents'])} events from "
        f"{args.cores} cores ({system.total_commits()} commits, "
        f"{system.total_aborts()} aborts) — open in ui.perfetto.dev"
    )
    print(merged.format())
    if args.jsonl:
        write_jsonl(args.jsonl, system.tracers())
        print(f"wrote {args.jsonl}")
    return 0


def _flatten(doc: Dict[str, Any], prefix: str = "") -> Dict[str, Any]:
    flat: Dict[str, Any] = {}
    for key, value in doc.items():
        path = f"{prefix}.{key}" if prefix else key
        if isinstance(value, dict):
            flat.update(_flatten(value, path))
        else:
            flat[path] = value
    return flat


def _cmd_diff(args: argparse.Namespace) -> int:
    with open(args.a) as fh:
        a = _flatten(json.load(fh))
    with open(args.b) as fh:
        b = _flatten(json.load(fh))
    keys = sorted(set(a) | set(b))
    changed = 0
    for key in keys:
        va, vb = a.get(key), b.get(key)
        if va == vb:
            continue
        changed += 1
        if (
            isinstance(va, (int, float))
            and isinstance(vb, (int, float))
            and va
        ):
            delta = f" ({(vb - va) / va * 100.0:+.2f}%)"
        else:
            delta = ""
        print(f"{key}: {va} -> {vb}{delta}")
    if changed == 0:
        print("identical")
    return 0


def _cmd_passivity(args: argparse.Namespace) -> int:
    """The CI gate: observability on vs off must be bit-identical."""
    if args.telemetry:
        return _cmd_passivity_telemetry(args)
    from repro.harness.runner import run_workload
    from repro.obs.profiler import CycleProfiler
    from repro.core.tracing import Tracer

    failures: List[str] = []
    for workload, scheme in (
        (args.workload, args.scheme),
        ("rbtree", "FG+LG"),
        ("heap", "EDE"),
    ):
        bare = run_workload(
            workload, _scheme(scheme), num_ops=args.ops,
            value_bytes=args.value_bytes, seed=args.seed,
        )
        profiler = CycleProfiler()
        observed = run_workload(
            workload, _scheme(scheme), num_ops=args.ops,
            value_bytes=args.value_bytes, seed=args.seed,
            tracer=Tracer(), profiler=profiler,
        )
        if bare.stats.as_dict() != observed.stats.as_dict():
            diffs = {
                k: (v, observed.stats.as_dict()[k])
                for k, v in bare.stats.as_dict().items()
                if observed.stats.as_dict()[k] != v
            }
            failures.append(f"{workload}/{scheme}: counters drifted {diffs}")
        elif bare.cycles != observed.cycles:
            failures.append(
                f"{workload}/{scheme}: cycles {bare.cycles} != {observed.cycles}"
            )
        elif profiler.total_cycles() != observed.cycles:
            failures.append(
                f"{workload}/{scheme}: phase buckets sum to "
                f"{profiler.total_cycles()}, cycles are {observed.cycles}"
            )
        else:
            print(
                f"passive: {workload}/{scheme} "
                f"({observed.cycles:,} cycles bit-identical, "
                f"buckets sum exactly)"
            )
    for failure in failures:
        print(f"PASSIVITY VIOLATION: {failure}", file=sys.stderr)
    return 1 if failures else 0


def _cmd_passivity_telemetry(args: argparse.Namespace) -> int:
    """The windowed-telemetry / request-tracing CI gate.

    Three proofs, exit 1 if any fails:

    1. a service run with telemetry + a request tracer attached is
       bit-identical (cycles, SimStats) to the bare run;
    2. same for a sharded cross-shard run;
    3. two half-runs' telemetry registries merged in submission order
       serialise byte-identically to the registry of recording both
       halves into one — the contract ``--jobs N`` sweeps rely on.
    """
    from repro.core.tracing import Tracer
    from repro.obs.telemetry import TelemetryWindows, merge_telemetry
    from repro.service.server import ServiceConfig, run_service
    from repro.shard.deployment import ShardedConfig, run_sharded

    failures: List[str] = []

    svc_cfg = ServiceConfig(
        workload=args.workload, scheme=args.scheme, seed=args.seed
    )
    bare = run_service(svc_cfg)
    telemetry = TelemetryWindows()
    observed = run_service(
        svc_cfg, telemetry=telemetry, request_tracer=Tracer()
    )
    if bare.stats.as_dict() != observed.stats.as_dict():
        failures.append(
            f"service {svc_cfg.workload}/{svc_cfg.scheme}: "
            "SimStats drifted with telemetry attached"
        )
    elif bare.cycles != observed.cycles:
        failures.append(
            f"service {svc_cfg.workload}/{svc_cfg.scheme}: cycles "
            f"{bare.cycles} != {observed.cycles}"
        )
    else:
        print(
            f"passive: service {svc_cfg.workload}/{svc_cfg.scheme} "
            f"telemetry+tracing attached, {observed.cycles:,} cycles "
            f"bit-identical ({telemetry.total('acked')} acks windowed)"
        )

    shard_cfg = ShardedConfig(
        workload=args.workload, scheme=args.scheme, seed=args.seed
    )
    bare_sh = run_sharded(shard_cfg)
    sh_tel = TelemetryWindows()
    observed_sh = run_sharded(
        shard_cfg, telemetry=sh_tel, request_tracer=Tracer()
    )
    if bare_sh.stats.as_dict() != observed_sh.stats.as_dict():
        failures.append(
            f"sharded {shard_cfg.workload}/{shard_cfg.scheme}: "
            "SimStats drifted with telemetry attached"
        )
    elif (bare_sh.cycles, bare_sh.pm_bytes) != (
        observed_sh.cycles, observed_sh.pm_bytes
    ):
        failures.append(
            f"sharded {shard_cfg.workload}/{shard_cfg.scheme}: "
            f"cycles/pm_bytes ({bare_sh.cycles}, {bare_sh.pm_bytes}) != "
            f"({observed_sh.cycles}, {observed_sh.pm_bytes})"
        )
    else:
        print(
            f"passive: sharded {shard_cfg.workload}/{shard_cfg.scheme} "
            f"telemetry+tracing attached, {observed_sh.cycles:,} cycles "
            f"bit-identical ({sh_tel.total('decisions')} 2PC decisions "
            "windowed)"
        )

    # Merge determinism: record two disjoint seeds into separate
    # registries, merge, compare byte-for-byte against one registry
    # that saw both runs.
    split_a, split_b = TelemetryWindows(), TelemetryWindows()
    serial = TelemetryWindows()
    for seed, part in ((args.seed, split_a), (args.seed + 1, split_b)):
        cfg = ServiceConfig(
            workload=args.workload, scheme=args.scheme, seed=seed
        )
        run_service(cfg, telemetry=part)
        run_service(cfg, telemetry=serial)
    merged = merge_telemetry([split_a, split_b])
    a = json.dumps(merged.to_dict(), sort_keys=True)
    b = json.dumps(serial.to_dict(), sort_keys=True)
    if a != b:
        failures.append(
            "telemetry merge: split registries merged != serial registry"
        )
    else:
        print(
            f"merge: split-vs-serial telemetry byte-identical "
            f"({len(merged)} windows, {len(a)} JSON bytes)"
        )

    for failure in failures:
        print(f"PASSIVITY VIOLATION: {failure}", file=sys.stderr)
    return 1 if failures else 0


def _scheme(name: str):
    from repro.core.schemes import scheme_by_name

    return scheme_by_name(name)


def _diff_keys(a: Dict[str, Any], b: Dict[str, Any]) -> List[str]:
    fa, fb = _flatten(a), _flatten(b)
    return [k for k in sorted(set(fa) | set(fb)) if fa.get(k) != fb.get(k)]


def _model_equivalence(jobs: int) -> int:
    """``obs equivalence --model``: serial vs ``--jobs N`` byte-identity
    of the model pipeline.

    Fits a reduced training grid twice (serial, parallel) and predicts
    + spot-checks a reduced ``bench --model`` grid twice; both document
    pairs must agree exactly after :func:`~repro.obs.bench.strip_host`
    (which removes host timing and the per-training-cell ``host_ms``
    fit metadata — every simulated observation, coefficient, residual
    and prediction is compared).  Also proves the checked-in artifact
    still matches this build's phase/feature schema.
    """
    from repro.model.fit import DEFAULT_MODEL_PATH, fit_model
    from repro.model.predict import ModelSchemaError, load_model

    failures = 0
    grid = dict(
        workloads=("hashtable", "rbtree"),
        schemes=("FG", "SLPMT"),
        ops_grid=(40, 80, 120, 160),
        value_bytes_grid=(64, 128),
    )
    serial_fit = bench_mod.strip_host(fit_model(jobs=1, **grid))
    parallel_fit = bench_mod.strip_host(
        fit_model(jobs=jobs, progress=print_progress, **grid)
    )
    if serial_fit != parallel_fit:
        for key in _diff_keys(serial_fit, parallel_fit)[:20]:
            print(
                f"EQUIVALENCE VIOLATION model fit serial vs --jobs {jobs}: "
                f"{key}",
                file=sys.stderr,
            )
        failures += 1
    else:
        print(
            f"equivalence: model fit --jobs {jobs} byte-identical to "
            f"serial ({len(serial_fit['training_cells'])} training cells, "
            "modulo host timing)"
        )
    try:
        load_model(DEFAULT_MODEL_PATH)
    except FileNotFoundError:
        print(f"equivalence: no {DEFAULT_MODEL_PATH} checked in, skipping")
        return 1 if failures else 0
    except ModelSchemaError as exc:
        print(
            f"EQUIVALENCE VIOLATION {DEFAULT_MODEL_PATH}: {exc}",
            file=sys.stderr,
        )
        return 1
    bench_grid = dict(
        ops_grid=tuple(range(50, 301, 50)),
        value_bytes_grid=(64, 128, 256),
        spot_checks=3,
    )
    serial_bench = bench_mod.strip_host(
        bench_mod.run_model_bench(jobs=1, **bench_grid)
    )
    parallel_bench = bench_mod.strip_host(
        bench_mod.run_model_bench(jobs=jobs, progress=print_progress, **bench_grid)
    )
    if serial_bench != parallel_bench:
        for key in _diff_keys(serial_bench, parallel_bench)[:20]:
            print(
                "EQUIVALENCE VIOLATION bench --model serial vs "
                f"--jobs {jobs}: {key}",
                file=sys.stderr,
            )
        failures += 1
    else:
        print(
            f"equivalence: bench --model --jobs {jobs} byte-identical to "
            f"serial ({len(serial_bench['cells'])} predicted cells, "
            f"{len(serial_bench['spot_check']['cells'])} spot-checks, "
            "modulo host timing)"
        )
    return 1 if failures else 0


def _sustained_equivalence(jobs: int) -> int:
    """``obs equivalence --sustained``: serial vs ``--jobs N``
    byte-identity of the sharded-population merge.

    Runs a reduced sustained shape — 3 populations whose final windows
    straddle the horizon (the duration is deliberately not a multiple
    of the window width) — twice, and requires the two documents to
    agree exactly after :func:`~repro.obs.bench.strip_host`.  The
    ``telemetry_sha256`` field inside the document pins the merged
    registry at full resolution, so this is the merged-telemetry
    byte-identity gate, not just a totals check.
    """
    from repro.service.sustained import run_sustained

    shape = dict(
        populations=3,
        clients_per_population=3,
        duration_cycles=300_000,   # 300000 / 8192 = 36.6 windows: the
        window_cycles=8192,        # final window straddles the horizon
        arrival_cycles=2500,
        num_keys=48,
        locking=True,
    )
    serial = bench_mod.strip_host(run_sustained(jobs=1, **shape))
    parallel = bench_mod.strip_host(
        run_sustained(jobs=jobs, progress=print_progress, **shape)
    )
    if serial != parallel:
        for key in _diff_keys(serial, parallel)[:20]:
            print(
                f"EQUIVALENCE VIOLATION sustained serial vs --jobs {jobs}: "
                f"{key}",
                file=sys.stderr,
            )
        return 1
    print(
        f"equivalence: sustained --jobs {jobs} byte-identical to serial "
        f"({shape['populations']} populations, "
        f"{serial['totals']['requests']} requests, merged telemetry "
        f"sha256 {serial['telemetry_sha256'][:16]})"
    )
    return 0


def _cmd_equivalence(args: argparse.Namespace) -> int:
    """The parallel==serial gate: a ``--jobs N`` sweep must be
    byte-identical to the serial sweep (modulo host timing), and both
    must be bit-identical to the checked-in baseline's simulated
    numbers."""
    jobs = max(2, resolve_jobs(args.jobs))
    if args.model:
        return _model_equivalence(jobs)
    if args.sustained:
        return _sustained_equivalence(jobs)
    if args.service:
        from repro.service import bench as svc_bench

        baseline_path = args.baseline or svc_bench.DEFAULT_SERVICE_BASELINE
        baseline = bench_mod.load_bench(baseline_path)
        params = baseline["params"]
        kwargs = dict(
            name=baseline["name"],
            workloads=tuple(params["workloads"]),
            schemes=tuple(params["schemes"]),
            batches=tuple(params["batches"]),
            num_clients=params["num_clients"],
            requests_per_client=params["requests_per_client"],
            value_bytes=params["value_bytes"],
            num_keys=params["num_keys"],
            theta=params["theta"],
            arrival_cycles=params["arrival_cycles"],
            max_wait_cycles=params["max_wait_cycles"],
            max_depth=params["max_depth"],
            seed=params["seed"],
            duration_cycles=params.get("duration_cycles"),
            target_load=params.get("target_load"),
        )
        run = svc_bench.run_service_bench
    elif args.twopc:
        from repro.shard import bench as shard_bench

        baseline_path = args.baseline or shard_bench.DEFAULT_TWOPC_BASELINE
        baseline = bench_mod.load_bench(baseline_path)
        params = baseline["params"]
        kwargs = dict(
            name=baseline["name"],
            workloads=tuple(params["workloads"]),
            schemes=tuple(params["schemes"]),
            spans=tuple(params["spans"]),
            num_shards=params["num_shards"],
            num_clients=params["num_clients"],
            requests_per_client=params["requests_per_client"],
            value_bytes=params["value_bytes"],
            num_keys=params["num_keys"],
            theta=params["theta"],
            arrival_cycles=params["arrival_cycles"],
            batch_size=params["batch_size"],
            max_wait_cycles=params["max_wait_cycles"],
            seed=params["seed"],
        )
        run = shard_bench.run_twopc_bench
    elif args.multicore:
        baseline_path = args.baseline or bench_mod.DEFAULT_MULTICORE_BASELINE
        baseline = bench_mod.load_bench(baseline_path)
        params = baseline["params"]
        kwargs = dict(
            name=baseline["name"],
            workloads=tuple(params["workloads"]),
            schemes=tuple(params["schemes"]),
            cores=tuple(params["cores"]),
            thetas=tuple(params["thetas"]),
            ops_per_core=params["ops_per_core"],
            num_keys=params["num_keys"],
            value_bytes=params["value_bytes"],
            seed=params["seed"],
        )
        run = bench_mod.run_multicore_bench
    else:
        baseline_path = args.baseline or bench_mod.DEFAULT_BASELINE
        baseline = bench_mod.load_bench(baseline_path)
        params = baseline["params"]
        kwargs = dict(
            name=baseline["name"],
            workloads=tuple(params["workloads"]),
            schemes=tuple(params["schemes"]),
            num_ops=params["num_ops"],
            value_bytes=params["value_bytes"],
            seed=params["seed"],
        )
        run = bench_mod.run_bench
    serial = run(jobs=1, **kwargs)
    parallel = run(jobs=jobs, progress=print_progress, **kwargs)

    failures = 0
    a = bench_mod.strip_host(serial)
    b = bench_mod.strip_host(parallel)
    if a != b:
        for key in _diff_keys(a, b)[:20]:
            print(
                f"EQUIVALENCE VIOLATION serial vs --jobs {jobs}: {key}",
                file=sys.stderr,
            )
        failures += 1
    else:
        print(
            f"equivalence: --jobs {jobs} byte-identical to serial "
            f"({len(a['cells'])} cells, modulo host timing)"
        )
    base_sim = bench_mod.strip_host(baseline)
    if a != base_sim:
        for key in _diff_keys(a, base_sim)[:20]:
            print(
                f"EQUIVALENCE VIOLATION vs {baseline_path}: {key}",
                file=sys.stderr,
            )
        failures += 1
    else:
        print(
            f"equivalence: simulated numbers bit-identical to {baseline_path}"
        )
    return 1 if failures else 0


def obs_main(argv: "List[str] | None" = None) -> int:
    parser = argparse.ArgumentParser(
        prog="python -m repro obs",
        description="Observability: stats dumps, histograms, traces, diffs.",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    p_stats = sub.add_parser("stats", help="run once, dump stats + attribution")
    _add_run_args(p_stats)
    p_stats.add_argument("--json", help="write a diffable JSON snapshot here")
    p_stats.add_argument(
        "--show-zero", action="store_true",
        help="include zero-valued counters (stable line set for diffing)",
    )
    p_stats.set_defaults(func=_cmd_stats)

    p_hist = sub.add_parser("hist", help="run once, print histogram summary")
    _add_run_args(p_hist)
    p_hist.set_defaults(func=_cmd_hist)

    p_trace = sub.add_parser(
        "trace", help="multicore YCSB run -> Perfetto trace JSON"
    )
    p_trace.add_argument("--cores", type=int, default=4)
    p_trace.add_argument("--scheme", default="SLPMT")
    p_trace.add_argument("--ops", type=int, default=50, help="inserts per core")
    p_trace.add_argument("--value-bytes", type=int, default=64)
    p_trace.add_argument("--seed", type=int, default=2023)
    p_trace.add_argument("--out", default="trace.json")
    p_trace.add_argument("--jsonl", help="also write a JSONL event stream")
    p_trace.set_defaults(func=_cmd_trace)

    p_diff = sub.add_parser("diff", help="diff two obs stats JSON snapshots")
    p_diff.add_argument("a")
    p_diff.add_argument("b")
    p_diff.set_defaults(func=_cmd_diff)

    p_pass = sub.add_parser(
        "passivity",
        help="prove obs changes nothing (exit 1 on any counter drift)",
    )
    _add_run_args(p_pass)
    p_pass.add_argument(
        "--telemetry", action="store_true",
        help="gate the windowed-telemetry + request-tracing layer "
        "instead (service + sharded runs, plus split-vs-serial merge "
        "byte-identity)",
    )
    p_pass.set_defaults(func=_cmd_passivity)

    p_equiv = sub.add_parser(
        "equivalence",
        help="prove a parallel bench sweep is byte-identical to serial "
        "and to the checked-in baseline (exit 1 on any diff)",
    )
    p_equiv.add_argument(
        "--jobs", type=int, default=None,
        help="parallel worker count to compare against serial "
        "(default REPRO_JOBS, at least 2)",
    )
    p_equiv.add_argument(
        "--baseline", default=None,
        help=f"baseline artifact path (default {bench_mod.DEFAULT_BASELINE})",
    )
    p_equiv.add_argument(
        "--multicore", action="store_true",
        help="check the contention sweep against "
        f"{bench_mod.DEFAULT_MULTICORE_BASELINE} instead",
    )
    p_equiv.add_argument(
        "--service", action="store_true",
        help="check the transaction-service sweep against "
        "BENCH_service.json instead",
    )
    p_equiv.add_argument(
        "--twopc", action="store_true",
        help="check the cross-shard 2PC sweep against "
        "BENCH_twopc.json instead",
    )
    p_equiv.add_argument(
        "--model", action="store_true",
        help="check the cost-model pipeline instead: reduced-grid fit "
        "and bench --model documents must be byte-identical between "
        "serial and --jobs N (modulo host timing)",
    )
    p_equiv.add_argument(
        "--sustained", action="store_true",
        help="check the sharded-population sustained run instead: a "
        "reduced 3-population duration-mode run must merge "
        "byte-identically between serial and --jobs N",
    )
    p_equiv.set_defaults(func=_cmd_equivalence)

    args = parser.parse_args(argv)
    return args.func(args)


#: Checked-in curve artifacts (JSON document + gnuplot table).
CURVE_JSON = "benchmarks/results/curve_service.json"
CURVE_TABLE = "benchmarks/results/curve_service.tsv"


def _bench_curves(args: argparse.Namespace) -> int:
    """``bench --curves``: the arrival-rate sweep artifact pipeline.

    Runs the deterministic curve sweep, then: ``--update`` re-pins the
    checked-in JSON + table, ``--check`` fails if the fresh sweep
    differs from the checked-in JSON at all (the document holds only
    simulated numbers), otherwise prints the curve.
    """
    import os

    from repro.service.curve import curve_to_table, format_curve, run_curve

    jobs = resolve_jobs(args.jobs)
    try:
        doc = run_curve(
            seed=args.seed,
            jobs=jobs,
            duration_cycles=args.duration,
            progress=print_progress if jobs > 1 else None,
        )
    except WorkerCrash as exc:
        print(f"curve sweep failed: {exc}", file=sys.stderr)
        return 1
    if args.out:
        with open(args.out, "w") as fh:
            json.dump(doc, fh, indent=1, sort_keys=True)
            fh.write("\n")
        print(f"wrote {args.out}")
    if args.update:
        os.makedirs(os.path.dirname(CURVE_JSON), exist_ok=True)
        with open(CURVE_JSON, "w") as fh:
            json.dump(doc, fh, indent=1, sort_keys=True)
            fh.write("\n")
        with open(CURVE_TABLE, "w") as fh:
            fh.write(curve_to_table(doc))
        print(f"wrote {CURVE_JSON}")
        print(f"wrote {CURVE_TABLE}")
        return 0
    if args.check:
        with open(CURVE_JSON) as fh:
            baseline = json.load(fh)
        if doc != baseline:
            for key in _diff_keys(
                {"points": {str(i): p for i, p in enumerate(doc["points"])},
                 "knees": doc["knees"]},
                {"points": {str(i): p
                            for i, p in enumerate(baseline["points"])},
                 "knees": baseline["knees"]},
            )[:20]:
                print(
                    f"CURVE DRIFT vs {CURVE_JSON}: {key}", file=sys.stderr
                )
            return 1
        print(
            f"curves: fresh sweep byte-identical to {CURVE_JSON} "
            f"({len(doc['points'])} load points)"
        )
        return 0
    print(format_curve(doc))
    return 0


def _bench_sustained(args: argparse.Namespace) -> int:
    """``bench --sustained``: the campaign-scale sustained artifact.

    Runs the default sharded-population deployment (4 populations x 8
    clients in duration mode — just over a million requests), then:
    ``--update`` re-pins ``benchmarks/results/sustained_service.json``,
    ``--check`` fails if the fresh run differs from the checked-in
    document anywhere outside host timing, otherwise prints the
    summary.  ``--duration``/``--target-load``/``--seed``/``--jobs``
    override the run shape (gated runs must keep the baseline's).
    """
    import os

    from repro.service.sustained import (
        DEFAULT_SUSTAINED_PATH,
        format_sustained,
        load_sustained,
        run_sustained,
        write_sustained,
    )

    jobs = resolve_jobs(args.jobs)
    kwargs = dict(seed=args.seed, jobs=jobs)
    if args.duration is not None:
        kwargs["duration_cycles"] = args.duration
    if args.target_load is not None:
        kwargs["target_load"] = args.target_load
    try:
        doc = run_sustained(
            progress=print_progress if jobs > 1 else None, **kwargs
        )
    except WorkerCrash as exc:
        print(f"sustained run failed: {exc}", file=sys.stderr)
        return 1
    if args.out:
        write_sustained(args.out, doc)
        print(f"wrote {args.out}")
    if args.update:
        os.makedirs(os.path.dirname(DEFAULT_SUSTAINED_PATH), exist_ok=True)
        write_sustained(DEFAULT_SUSTAINED_PATH, doc)
        print(f"wrote {DEFAULT_SUSTAINED_PATH}")
        return 0
    if args.check:
        baseline = load_sustained(DEFAULT_SUSTAINED_PATH)
        fresh = bench_mod.strip_host(doc)
        pinned = bench_mod.strip_host(baseline)
        if fresh != pinned:
            for key in _diff_keys(fresh, pinned)[:20]:
                print(
                    f"SUSTAINED DRIFT vs {DEFAULT_SUSTAINED_PATH}: {key}",
                    file=sys.stderr,
                )
            return 1
        print(
            f"sustained: fresh run byte-identical to "
            f"{DEFAULT_SUSTAINED_PATH} "
            f"({doc['totals']['requests']:,} requests across "
            f"{doc['params']['populations']} populations, merged "
            f"telemetry sha256 {doc['telemetry_sha256'][:16]})"
        )
        return 0
    print(format_sustained(doc))
    return 0


def _bench_model(args: argparse.Namespace) -> int:
    """``bench --model``: the surrogate tier.

    Predicts the campaign-scale grid from the checked-in cost model (no
    simulation), then audits a seeded sample of cells with the real
    simulator; exit status is the spot-check verdict.
    """
    from repro.model.predict import ModelSchemaError

    jobs = resolve_jobs(args.jobs)
    try:
        doc = bench_mod.run_model_bench(
            name=args.name or "model",
            model_path=args.model_path,
            seed=args.seed,
            spot_checks=args.spot_checks
            if args.spot_checks is not None
            else bench_mod.DEFAULT_SPOT_CHECKS,
            max_error=args.max_error,
            jobs=jobs,
            progress=print_progress if jobs > 1 else None,
        )
    except FileNotFoundError as exc:
        print(
            f"model bench failed: {exc} "
            "(fit one first: python -m repro model fit)",
            file=sys.stderr,
        )
        return 1
    except ModelSchemaError as exc:
        print(f"model bench failed: {exc}", file=sys.stderr)
        return 1
    except WorkerCrash as exc:
        print(f"model bench failed: {exc}", file=sys.stderr)
        return 1
    if args.out:
        bench_mod.write_bench(args.out, doc)
        print(f"wrote {args.out}")
    print(bench_mod.format_model_bench(doc))
    return 0 if doc["spot_check"]["ok"] else 1


def bench_main(argv: "List[str] | None" = None) -> int:
    parser = argparse.ArgumentParser(
        prog="python -m repro bench",
        description="BENCH_*.json perf artifacts and the regression gate.",
    )
    parser.add_argument("--name", default=None,
                        help="artifact name (default slpmt_ycsb, or "
                        "multicore with --multicore)")
    parser.add_argument("--ops", type=int, default=None,
                        help=f"ops per run (default {bench_mod.DEFAULT_NUM_OPS}"
                        f", or {bench_mod.DEFAULT_MULTICORE_OPS} per core "
                        "with --multicore)")
    parser.add_argument(
        "--value-bytes", type=int, default=bench_mod.DEFAULT_VALUE_BYTES
    )
    parser.add_argument("--seed", type=int, default=bench_mod.DEFAULT_SEED)
    parser.add_argument(
        "--multicore", action="store_true",
        help="sweep the shared-key contention grid (workload × scheme × "
        "cores × θ) instead of the single-core scheme grid",
    )
    parser.add_argument(
        "--service", action="store_true",
        help="sweep the transaction-service grid (workload × scheme × "
        "group-commit batch size); uses the service grid's own knobs "
        "(--ops/--value-bytes are ignored), honours --seed/--jobs",
    )
    parser.add_argument(
        "--twopc", action="store_true",
        help="sweep the cross-shard 2PC grid (workload × scheme × "
        "transaction span at a fixed shard count); uses the shard "
        "grid's own knobs (--ops/--value-bytes are ignored), honours "
        "--seed/--jobs/--spans",
    )
    parser.add_argument(
        "--spans", type=str, default=None,
        help="comma-separated txn_keys spans for --twopc (default "
        "2,4,8)",
    )
    parser.add_argument(
        "--curves", action="store_true",
        help="sweep arrival rates per scheme and write the "
        "throughput-vs-latency curve artifacts "
        "(benchmarks/results/curve_service.json + .tsv); honours "
        "--seed/--jobs/--check/--update/--duration",
    )
    parser.add_argument(
        "--sustained", action="store_true",
        help="run the campaign-scale sharded-population deployment "
        "(duration mode, ~1M requests) and gate/update "
        "benchmarks/results/sustained_service.json; honours "
        "--seed/--jobs/--check/--update/--duration/--target-load",
    )
    parser.add_argument(
        "--duration", type=int, default=None, metavar="CYCLES",
        help="duration mode for --service/--curves/--sustained: every "
        "run serves until the simulated clock passes this horizon "
        "instead of a fixed request count",
    )
    parser.add_argument(
        "--target-load", type=float, default=None, metavar="REQS_PER_KCYC",
        help="offered load in requests per 1000 cycles for "
        "--service/--sustained (spread over the clients; overrides the "
        "arrival gap)",
    )
    parser.add_argument(
        "--model", action="store_true",
        help="predict the campaign-scale grid from the fitted cost "
        "model (benchmarks/results/cost_model.json) and spot-check a "
        "seeded sample against the real simulator; exits 1 if any "
        "spot-check exceeds --max-error",
    )
    parser.add_argument(
        "--model-path", default=None,
        help="cost model artifact for --model (default "
        "benchmarks/results/cost_model.json)",
    )
    parser.add_argument(
        "--spot-checks", type=int, default=None,
        help="simulator audit cells for --model (default "
        f"{bench_mod.DEFAULT_SPOT_CHECKS})",
    )
    parser.add_argument(
        "--max-error", type=float, default=None,
        help="per-spot-check relative-error gate for --model "
        "(default 0.05)",
    )
    parser.add_argument(
        "--best-of", type=int, default=1,
        help="repeat the default sweep N times and report the minimum "
        "wall-clock (run memo cleared between reps; simulated numbers "
        "are identical across reps)",
    )
    parser.add_argument(
        "--cores", type=str, default=None,
        help="comma-separated core counts for --multicore (default "
        + ",".join(str(c) for c in bench_mod.MULTICORE_CORES) + ")",
    )
    parser.add_argument(
        "--thetas", type=str, default=None,
        help="comma-separated zipfian skews for --multicore (default "
        + ",".join(f"{t:g}" for t in bench_mod.MULTICORE_THETAS) + ")",
    )
    parser.add_argument(
        "--baseline", default=None,
        help="baseline artifact path (default BENCH_<name>.json)",
    )
    parser.add_argument(
        "--threshold", type=float, default=bench_mod.DEFAULT_THRESHOLD,
        help="allowed relative drift before --check fails (default 0.02)",
    )
    parser.add_argument(
        "--check", action="store_true",
        help="compare against the baseline; exit 1 on regression",
    )
    parser.add_argument(
        "--update", action="store_true",
        help="write the fresh sweep over the baseline file",
    )
    parser.add_argument(
        "--jobs", type=int, default=None,
        help="worker processes for the sweep (default REPRO_JOBS or 1); "
        "output is byte-identical to serial modulo host timing",
    )
    parser.add_argument(
        "--out", default=None,
        help="also write the fresh sweep document to this path",
    )
    args = parser.parse_args(argv)
    if (args.cores or args.thetas) and not args.multicore:
        raise SystemExit("--cores/--thetas require --multicore")
    if args.spans and not args.twopc:
        raise SystemExit("--spans requires --twopc")
    if sum(
        (args.multicore, args.service, args.twopc, args.curves, args.model,
         args.sustained)
    ) > 1:
        raise SystemExit(
            "--multicore/--service/--twopc/--curves/--model/--sustained "
            "are mutually exclusive"
        )
    if args.duration is not None and not (
        args.service or args.curves or args.sustained
    ):
        raise SystemExit("--duration requires --service/--curves/--sustained")
    if args.target_load is not None and not (args.service or args.sustained):
        raise SystemExit("--target-load requires --service/--sustained")
    if (
        args.model_path or args.spot_checks is not None
        or args.max_error is not None
    ) and not args.model:
        raise SystemExit(
            "--model-path/--spot-checks/--max-error require --model"
        )
    if args.best_of > 1 and (
        args.multicore or args.service or args.twopc or args.curves
        or args.model or args.sustained
    ):
        raise SystemExit("--best-of only applies to the default sweep")
    if args.curves:
        return _bench_curves(args)
    if args.model:
        return _bench_model(args)
    if args.sustained:
        return _bench_sustained(args)

    jobs = resolve_jobs(args.jobs)
    name = args.name or (
        "twopc"
        if args.twopc
        else "service"
        if args.service
        else "multicore"
        if args.multicore
        else "slpmt_ycsb"
    )
    baseline_path = args.baseline or bench_mod.bench_name(name)
    try:
        if args.twopc:
            from repro.shard.bench import TWOPC_SPANS, run_twopc_bench

            spans = (
                tuple(int(s) for s in args.spans.split(","))
                if args.spans
                else TWOPC_SPANS
            )
            doc = run_twopc_bench(
                name=name,
                spans=spans,
                seed=args.seed,
                jobs=jobs,
                progress=print_progress if jobs > 1 else None,
            )
        elif args.service:
            from repro.service.bench import run_service_bench

            doc = run_service_bench(
                name=name,
                seed=args.seed,
                duration_cycles=args.duration,
                target_load=args.target_load,
                jobs=jobs,
                progress=print_progress if jobs > 1 else None,
            )
        elif args.multicore:
            cores = (
                tuple(int(c) for c in args.cores.split(","))
                if args.cores
                else bench_mod.MULTICORE_CORES
            )
            thetas = (
                tuple(float(t) for t in args.thetas.split(","))
                if args.thetas
                else bench_mod.MULTICORE_THETAS
            )
            doc = bench_mod.run_multicore_bench(
                name=name,
                cores=cores,
                thetas=thetas,
                ops_per_core=args.ops
                if args.ops is not None
                else bench_mod.DEFAULT_MULTICORE_OPS,
                value_bytes=args.value_bytes,
                seed=args.seed,
                jobs=jobs,
                progress=print_progress if jobs > 1 else None,
            )
        else:
            doc = bench_mod.run_bench(
                name=name,
                num_ops=args.ops
                if args.ops is not None
                else bench_mod.DEFAULT_NUM_OPS,
                value_bytes=args.value_bytes,
                seed=args.seed,
                jobs=jobs,
                best_of=args.best_of,
                progress=print_progress if jobs > 1 else None,
            )
    except WorkerCrash as exc:
        print(f"bench sweep failed: {exc}", file=sys.stderr)
        return 1
    if args.out:
        bench_mod.write_bench(args.out, doc)
        print(f"wrote {args.out}")
    if args.update:
        bench_mod.write_bench(baseline_path, doc)
        print(f"wrote {baseline_path}")
        return 0
    if args.check:
        baseline = bench_mod.load_bench(baseline_path)
        result = bench_mod.check_bench(
            doc, baseline, threshold=args.threshold
        )
        print(bench_mod.format_check(result, threshold=args.threshold))
        return 0 if result.ok else 1
    for scheme, geo in doc["geomean"].items():
        print(
            f"{scheme:<8} geomean cycles={geo['cycles']:>14,.0f}  "
            f"pm_bytes={geo['pm_bytes']:>12,.0f}"
        )
    for scheme, amort in doc.get("amortization", {}).items():
        if "span_lo" in amort:
            axis = f"decide-persist/xwrite k{amort['span_lo']}->k{amort['span_hi']}"
        else:
            axis = (
                "commit-persist/write "
                f"b{amort['batch_lo']}->b{amort['batch_hi']}"
            )
        print(
            f"{scheme:<8} {axis} amortization: "
            f"{amort['geomean']:.2f}x geomean "
            + " ".join(
                f"{w}={r:.2f}x" for w, r in amort["per_workload"].items()
            )
        )
    host = doc.get("host", {})
    if host.get("best_of", 1) > 1:
        reps = " ".join(f"{s:.3f}" for s in host.get("rep_seconds", []))
        print(
            f"wall-clock best-of-{host['best_of']}: {host['seconds']:.3f}s "
            f"(reps: {reps})"
        )
    return 0

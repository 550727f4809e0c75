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
    python -m repro bench --multicore --cores 1,2   # contention grid
    python -m repro bench --twopc --check    # gate vs BENCH_twopc.json
    python -m repro obs equivalence --twopc  # --jobs N == serial == baseline

Every mode is one :class:`~repro.obs.bench.BenchSpec` in
:data:`repro.obs.bench.SPECS`; ``bench`` and ``obs equivalence`` loop
over that registry and carry no per-mode code.
"""

from __future__ import annotations

import argparse
import json
import os
import sys
from typing import Any, Dict, List, Tuple

from repro.common.errors import ArtifactError
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
        bench_mod.write_artifact(args.json, run.to_doc())
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


def _cmd_diff(args: argparse.Namespace) -> int:
    with open(args.a) as fh:
        a = bench_mod.flatten(json.load(fh))
    with open(args.b) as fh:
        b = bench_mod.flatten(json.load(fh))
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
    """The windowed-telemetry CI gate.

    Three proofs, exit 1 if any fails:

    1. a service run with telemetry attached is bit-identical (cycles,
       SimStats) to the bare run;
    2. same for a sharded cross-shard run;
    3. two half-runs' telemetry registries merged in submission order
       serialise byte-identically to the registry of recording both
       halves into one — the contract ``--jobs N`` sweeps rely on.
    """
    from repro.obs.telemetry import TelemetryWindows, merge_telemetry
    from repro.service.server import ServiceConfig, run_service
    from repro.shard.deployment import ShardedConfig, run_sharded

    failures: List[str] = []

    svc_cfg = ServiceConfig(
        workload=args.workload, scheme=args.scheme, seed=args.seed
    )
    bare = run_service(svc_cfg)
    telemetry = TelemetryWindows()
    observed = run_service(svc_cfg, telemetry=telemetry)
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
            f"telemetry attached, {observed.cycles:,} cycles "
            f"bit-identical ({telemetry.total('acked')} acks windowed)"
        )

    shard_cfg = ShardedConfig(
        workload=args.workload, scheme=args.scheme, seed=args.seed
    )
    bare_sh = run_sharded(shard_cfg)
    sh_tel = TelemetryWindows()
    observed_sh = run_sharded(shard_cfg, telemetry=sh_tel)
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
            f"telemetry attached, {observed_sh.cycles:,} cycles "
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


def _cmd_equivalence(args: argparse.Namespace) -> int:
    """The parallel==serial gate: a ``--jobs N`` run must be
    byte-identical to the serial run (modulo host timing) — and, for a
    mode proved at its artifact's params, bit-identical to the
    artifact's simulated numbers."""
    spec = bench_mod.SPECS[args.mode]
    if args.baseline and spec.reduced:
        args.usage_error(
            f"--baseline does not apply: {spec.name} is proved at a "
            "reduced shape, not against an artifact"
        )
    jobs = max(2, resolve_jobs(args.jobs))
    baseline = path = None
    failures = 0
    if spec.reduced:
        proofs = spec.reduced
    else:
        path = args.baseline or spec.path()
        baseline, kwargs = spec.load(path)
        proofs = ((spec.name, spec.run, kwargs),)
    for label, run, kwargs in proofs:
        serial = bench_mod.strip_host(run(jobs=1, **kwargs))
        parallel = bench_mod.strip_host(
            run(jobs=jobs, progress=print_progress, **kwargs)
        )
        what = f"EQUIVALENCE VIOLATION {label} serial vs --jobs {jobs}"
        if bench_mod.same(serial, parallel, what):
            print(
                f"equivalence: {label} --jobs {jobs} byte-identical to "
                "serial (modulo host timing)"
            )
        else:
            failures += 1
    if baseline is not None:
        what = f"EQUIVALENCE VIOLATION vs {path}"
        if bench_mod.same(serial, bench_mod.strip_host(baseline), what):
            print(f"equivalence: simulated numbers bit-identical to {path}")
        else:
            failures += 1
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
        help="gate the windowed-telemetry layer instead (service + "
        "sharded runs, plus split-vs-serial merge byte-identity)",
    )
    p_pass.set_defaults(func=_cmd_passivity)

    p_equiv = sub.add_parser(
        "equivalence",
        help="prove a parallel bench run is byte-identical to serial "
        "and to the checked-in baseline (exit 1 on any diff)",
    )
    p_equiv.add_argument(
        "--jobs", type=int, default=None,
        help="parallel worker count to compare against serial "
        "(default REPRO_JOBS, at least 2)",
    )
    p_equiv.add_argument(
        "--baseline", default=None,
        help="baseline artifact path (default: the mode's checked-in "
        "artifact; modes proved at a reduced shape read none)",
    )
    _add_modes(p_equiv, [s for s in bench_mod.SPECS.values() if s.equivalence])
    p_equiv.set_defaults(func=_cmd_equivalence, usage_error=p_equiv.error)

    args = parser.parse_args(argv)
    try:
        return args.func(args)
    except (ArtifactError, WorkerCrash) as exc:
        print(f"obs {args.command}: {exc}", file=sys.stderr)
        return 1


def _ints(text: str) -> Tuple[int, ...]:
    return tuple(int(part) for part in text.split(","))


def _floats(text: str) -> Tuple[float, ...]:
    return tuple(float(part) for part in text.split(","))


#: Mode-specific ``bench`` overrides (all default to the mode's own
#: value); each :class:`~repro.obs.bench.BenchSpec` lists the ones it
#: honours, and any other is a usage error.
_OVERRIDES: Tuple[Tuple[str, Dict[str, Any]], ...] = (
    ("--name", dict(help="artifact name (default: the mode's name); "
                    "the default baseline is BENCH_<name>.json")),
    ("--ops", dict(type=int, help="ops per run (default "
                   f"{bench_mod.DEFAULT_NUM_OPS}, or "
                   f"{bench_mod.MULTICORE_GRID.defaults['ops_per_core']} "
                   "per core with --multicore)")),
    ("--value-bytes", dict(type=int, help="value size (default "
                           f"{bench_mod.DEFAULT_VALUE_BYTES})")),
    ("--seed", dict(type=int, help=f"seed (default {bench_mod.DEFAULT_SEED})")),
    ("--cores", dict(type=_ints, help="comma-separated core counts for "
                     "--multicore (default 1,2,4)")),
    ("--thetas", dict(type=_floats, help="comma-separated zipfian skews "
                      "for --multicore (default 0,0.9)")),
    ("--spans", dict(type=_ints, help="comma-separated txn_keys spans for "
                     "--twopc (default 2,4,8)")),
    ("--duration", dict(type=int, metavar="CYCLES", help="duration mode "
                        "for --service/--curves/--sustained: every run "
                        "serves until the simulated clock passes this "
                        "horizon instead of a fixed request count")),
    ("--target-load", dict(type=float, metavar="REQS_PER_KCYC",
                           help="offered load in requests per 1000 cycles "
                           "for --service/--sustained (spread over the "
                           "clients; overrides the arrival gap)")),
    ("--model-path", dict(help="cost model artifact for --model (default "
                          "benchmarks/results/cost_model.json)")),
    ("--spot-checks", dict(type=int, help="simulator audit cells for "
                           f"--model (default {bench_mod.DEFAULT_SPOT_CHECKS})")),
    ("--max-error", dict(type=float, help="per-spot-check relative-error "
                         "gate for --model (default 0.05)")),
)


def _dest(flag: str) -> str:
    return flag[2:].replace("-", "_")


def _add_modes(parser: argparse.ArgumentParser, specs) -> None:
    """One exclusive flag per mode of *specs*; the default is the mode
    without a flag."""
    modes = parser.add_mutually_exclusive_group()
    for spec in specs:
        if spec.flag:
            modes.add_argument(
                spec.flag, dest="mode", action="store_const",
                const=spec.name, help=spec.help,
            )
    parser.set_defaults(mode=bench_mod.YCSB_GRID.name)


def bench_main(argv: "List[str] | None" = None) -> int:
    parser = argparse.ArgumentParser(
        prog="python -m repro bench",
        description="BENCH_*.json perf artifacts and the regression gate.",
    )
    _add_modes(parser, bench_mod.SPECS.values())
    for flag, kwargs in _OVERRIDES:
        parser.add_argument(flag, default=None, **kwargs)
    parser.add_argument(
        "--baseline", default=None,
        help="artifact path (default: the mode's checked-in artifact)",
    )
    gate = parser.add_mutually_exclusive_group()
    gate.add_argument(
        "--check", action="store_true",
        help="regenerate at the artifact's own params and gate against "
        "it; exit 1 on failure",
    )
    gate.add_argument(
        "--update", action="store_true",
        help="write the fresh run over the artifact",
    )
    parser.add_argument(
        "--jobs", type=int, default=None,
        help="worker processes (default REPRO_JOBS or 1); output is "
        "byte-identical to serial modulo host timing",
    )
    parser.add_argument(
        "--out", default=None,
        help="also write the fresh document to this path",
    )
    args = parser.parse_args(argv)
    spec = bench_mod.SPECS[args.mode]
    mode = spec.flag or "the default bench"
    given = [flag for flag, _ in _OVERRIDES if getattr(args, _dest(flag)) is not None]
    for flag in given:
        if _dest(flag) not in spec.overrides:
            parser.error(f"{flag} does not apply to {mode}")
    if spec.artifact is None:
        for flag in ("--baseline", "--check", "--update"):
            if getattr(args, _dest(flag)):
                parser.error(f"{flag} does not apply to {mode}: it has no artifact")
    if args.check and given:
        parser.error(
            f"--check regenerates at the artifact's params; drop {', '.join(given)}"
        )
    kwargs = {spec.overrides[_dest(flag)]: getattr(args, _dest(flag)) for flag in given}
    path = args.baseline or (spec.path(args.name) if spec.artifact else None)
    jobs = resolve_jobs(args.jobs)
    baseline = None
    try:
        if args.check:
            baseline, kwargs = spec.load(path)
        doc = spec.run(
            jobs=jobs, progress=print_progress if jobs > 1 else None, **kwargs
        )
    except (ArtifactError, WorkerCrash) as exc:
        print(f"bench: {exc}", file=sys.stderr)
        return 1
    if args.out:
        bench_mod.write_artifact(args.out, doc)
        print(f"wrote {args.out}")
    if args.update:
        bench_mod.write_artifact(path, doc)
        print(f"wrote {path}")
        if spec.table is not None:
            table = os.path.splitext(path)[0] + ".tsv"
            with open(table, "w") as fh:
                fh.write(spec.table(doc))
            print(f"wrote {table}")
        return 0
    if not args.check:
        print(spec.headline(doc))
    return 0 if spec.gate(doc, baseline, path) else 1

"""End-to-end benchmark of the SLPMT simulator: host cost and simulated results.

Run from the repository root::

    python3 benchmarks/e2e/run.py --workload kernels --seed 2023
    python3 benchmarks/e2e/run.py --seed 2023 --out R.json           # all workloads
    python3 benchmarks/e2e/run.py --seed 2023 --trace --out T.json   # per-layer

With ``--workload`` one workload runs in this (single-threaded)
process; without it every workload runs in its own fresh interpreter,
one after another.  Untraced runs report the end-to-end metrics of
``BENCHMARK.json``; traced runs (``--trace`` or ``--trace 1``) report
the per-layer metrics.  The last line of standard output is one JSON
object: ``{"correct", "attempted", "failed", "metrics"}``.  The exit
status is 0 when every correctness check held, 1 when one failed, and
2 when the benchmark could not run at all.
"""

from __future__ import annotations

import argparse
import cProfile
import hashlib
import json
import os
import platform
import resource
import statistics
import subprocess
import sys
import time
from pathlib import Path
from typing import Dict, List, Optional, Tuple

HERE = Path(__file__).resolve().parent
ROOT = HERE.parents[1]
SRC = ROOT / "src"
OUT_DIR = HERE / "out"

sys.path.insert(0, str(HERE))

import hostspeed  # noqa: E402
import layers  # noqa: E402
import metrics  # noqa: E402
from spans import Spans  # noqa: E402

#: Each of these changes what the program does (observability hooks,
#: worker processes, injected failures), so a run refuses to start.
REFUSED_ENV = ("REPRO_OBS", "REPRO_JOBS", "REPRO_POISON_CELL")

#: Fresh-interpreter set-up probes per untraced run (median reported).
PROBES = 7
#: Seconds between host-speed samples inside a probe, which lasts ~0.2 s.
PROBE_PERIOD = 0.02

#: The layer self times must add up to the traced wall time this closely.
MAX_SUM_ERR = 0.02


def _sha(blob) -> str:
    text = json.dumps(blob, sort_keys=True, separators=(",", ":"), default=repr)
    return hashlib.sha256(text.encode()).hexdigest()


def probe_seconds(workload: str, seed: int, size: str) -> Tuple[float, float]:
    """Import the simulator and build *workload*'s first subject in this
    (fresh) interpreter; return the seconds that took, as measured and
    at nominal host speed."""
    with hostspeed.Sampler(PROBE_PERIOD) as speed:
        t0 = time.perf_counter()
        import suite

        suite.SUITE[workload](seed, size).probe()
        t1 = time.perf_counter()
    return t1 - t0, speed.nominal_seconds(t0, t1)


def _probe_in_fresh_interpreter(workload: str, seed: int, size: str) -> Tuple[float, float]:
    done = subprocess.run(
        [sys.executable, __file__, "--probe", "--workload", workload,
         "--seed", str(seed), "--size", size],
        cwd=ROOT, capture_output=True, text=True, timeout=120, check=True,
    )
    seconds, nominal = done.stdout.split()
    return float(seconds), float(nominal)


def _one_pass(wl, spans: Spans, index: int):
    """Run one pass under a root span; return (root span id, result, sha).

    Only the first pass keeps its simulated outputs; later passes keep
    their hash, so peak memory does not grow with the number of passes."""
    root = len(spans.records)
    with spans.span("pass", f"pass {index}"):
        result = wl.run_pass(spans)
    sha = _sha(result.blob)
    if index > 0:
        result.blob = None
    return root, result, sha


def measure(
    name: str,
    seed: int,
    seconds: float,
    trace: bool,
    size: str,
    bench: metrics.Benchmark,
    spans_path: Optional[Path] = None,
) -> Dict:
    """Run one workload in this process and build its record."""
    import suite

    t_start = time.perf_counter()
    wl = suite.SUITE[name](seed, size)
    spans = Spans(name)
    passes = []  # (root span id, PassResult, sha)
    setup: List[Tuple[float, float]] = []  # (seconds, at nominal host speed)
    traced_wall = 0.0
    profile_stats: Dict = {}
    if trace:
        speed = None
        passes.append(_one_pass(wl, spans, 0))
        profiler = cProfile.Profile()
        t0 = time.perf_counter()
        profiler.enable()
        traced = wl.run_pass(Spans(name))
        profiler.disable()
        traced_wall = time.perf_counter() - t0
        profile_stats = layers.snapshot(profiler)
        passes.append((None, traced, _sha(traced.blob)))
        traced.blob = None
    else:
        setup = [_probe_in_fresh_interpreter(name, seed, size) for _ in range(PROBES)]
        with hostspeed.Sampler() as speed:
            deadline = t_start + seconds
            while True:
                passes.append(_one_pass(wl, spans, len(passes)))
                if len(passes) == 1:
                    # Later passes overlap the first pass's retained
                    # outputs, so their peak depends on the pass count.
                    peak_rss_mb = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024
                walls = [spans.records[r].seconds for r, _, _ in passes]
                if time.perf_counter() + statistics.median(walls) > deadline:
                    break

    timed = [(root, r) for root, r, _ in passes if root is not None]
    first = timed[0][1]
    # Per-item medians across passes, summed: one slow pass inflates
    # only the items it overlapped.  Items are timed as measured and at
    # the nominal host speed sampled while they ran.
    items: Dict[str, List[Tuple[float, float]]] = {}
    for root, _ in timed:
        for record in spans.under("run", root):
            nominal = speed.nominal_seconds(record.start, record.end) if speed else record.seconds
            items.setdefault(record.name, []).append((record.seconds, nominal))
    raw_run_s = sum(statistics.median(s for s, _ in v) for v in items.values())
    run_s = sum(statistics.median(n for _, n in v) for v in items.values())
    extra = wl.finish_run(spans, first)

    problems = [p for _, r, _ in passes for p in r.problems] + extra.problems
    if len({sha for _, _, sha in passes}) != 1:
        problems.append("simulated outputs differ between passes")
    sim = {**first.sim, **extra.sim}
    values: Dict[str, float] = dict(sim)
    host = {
        "ops_per_s": first.ops / run_s,
        "sim_instr_per_s": first.instructions / raw_run_s,
        **first.host,
    }
    if trace:
        root = timed[0][0]
        host.update(layers.rollup(profile_stats, traced_wall))
        if host["trace.sum_err"] > MAX_SUM_ERR:
            problems.append(
                f"layer self times sum {host['trace.sum_err']:.2%} away from the "
                f"traced wall time (limit {MAX_SUM_ERR:.0%})"
            )
        host["trace.wall_s"] = traced_wall
        host["trace.overhead"] = traced_wall / spans.records[root].seconds
        for kind in ("setup", "run", "finish"):
            host[f"span.{kind}_s"] = spans.seconds(kind, root)
    else:
        host["setup_s"] = statistics.median(n for _, n in setup)
        host["peak_rss_mb"] = peak_rss_mb
    values.update(host)

    scope = "per_layer" if trace else "end_to_end"
    emitted = {}
    for metric in bench.scope(scope):
        if metric.name in values:
            value = values[metric.name]
        elif metric.name in suite.WORKLOAD_ONLY:
            value = 0
        else:
            raise RuntimeError(f"{name}: declared metric {metric.name} not measured")
        emitted[metric.name] = {"value": value, "unit": metric.unit}

    attempted = sum(r.ops for _, r, _ in passes)
    failed = sum(r.failed for _, r, _ in passes)
    if spans_path is not None:
        spans_path.parent.mkdir(parents=True, exist_ok=True)
        spans.write_jsonl(str(spans_path), seed=seed)
    return {
        "workload": name,
        "seed": seed,
        "size": size,
        "trace": trace,
        "passes": len(passes),
        "wall_s": time.perf_counter() - t_start,
        "correct": not problems,
        "attempted": attempted,
        "failed": failed,
        "error_rate": failed / attempted if attempted else 0.0,
        "problems": problems,
        "sim_sha256": _sha({"pass": first.blob, "extra": extra.blob}),
        "sim": sim,
        "setup_probes": [{"seconds": s, "nominal_s": n} for s, n in setup],
        "run_items": {
            item: [{"seconds": s, "nominal_s": n} for s, n in v] for item, v in items.items()
        },
        "info": {
            "ops_per_pass": f"{first.ops} {wl.op_name}",
            **({} if trace else {
                "ops_per_s_raw": first.ops / raw_run_s,
                "setup_s_raw": statistics.median(s for s, _ in setup),
                "host_slowdown": raw_run_s / run_s,
            }),
            **first.info,
            **extra.info,
        },
        "metrics": emitted,
    }


def _host_facts() -> Dict:
    return {
        "nproc": os.cpu_count(),
        "python": platform.python_version(),
        "platform": platform.platform(),
    }


def _format(record: Dict, bench: metrics.Benchmark) -> str:
    lines = [
        f"== {record['workload']}: seed {record['seed']}, "
        f"{'traced' if record['trace'] else 'untraced'}, {record['passes']} "
        f"pass(es), {record['wall_s']:.1f} s wall =="
    ]
    for name, entry in record["metrics"].items():
        metric = bench.metrics[name]
        bound = "" if metric.bound is None else f", bound {metric.bound:.0%}"
        clock = "simulated" if metric.simulated else "host"
        lines.append(
            f"  {name:<40} {entry['value']:>16.6g} {entry['unit']:<13} "
            f"({clock}, {metric.better} is better{bound})"
        )
    lines.append(
        f"  {'error_rate':<40} {record['error_rate']:>16.6g} failed/attempted "
        f"({record['failed']}/{record['attempted']})"
    )
    for key, value in record["info"].items():
        lines.append(f"  {key:<40} {value}")
    lines.append(f"  {'sim_sha256':<40} {record['sim_sha256']}")
    for problem in record["problems"]:
        lines.append(f"  CHECK FAILED: {problem}")
    return "\n".join(lines)


def _summary(records: List[Dict]) -> str:
    """The result line; with several workloads, metrics are keyed
    ``workload/metric``."""
    def key(record, name):
        return name if len(records) == 1 else f"{record['workload']}/{name}"

    return json.dumps(
        {
            "correct": all(r["correct"] for r in records),
            "attempted": sum(r["attempted"] for r in records),
            "failed": sum(r["failed"] for r in records),
            "metrics": {
                key(r, name): entry for r in records for name, entry in r["metrics"].items()
            },
        }
    )


def _document(records: List[Dict], args) -> Dict:
    return {
        "schema": "e2e-bench/1",
        "seed": args.seed,
        "trace": bool(args.trace),
        "seconds": args.seconds,
        "host": _host_facts(),
        "workloads": {r["workload"]: r for r in records},
    }


def _write(path: str, doc: Dict) -> None:
    Path(path).parent.mkdir(parents=True, exist_ok=True)
    with open(path, "w", encoding="utf-8") as fh:
        json.dump(doc, fh, indent=1, sort_keys=True)
        fh.write("\n")


def _run_all(args, bench: metrics.Benchmark) -> int:
    """Every workload in its own fresh interpreter, one after another."""
    OUT_DIR.mkdir(parents=True, exist_ok=True)
    records = []
    for name in bench.workloads:
        child_out = OUT_DIR / f".child-{os.getpid()}-{name}.json"
        cmd = [
            sys.executable, __file__, "--workload", name, "--seed", str(args.seed),
            "--seconds", str(args.seconds), "--trace", str(args.trace),
            "--size", args.size, "--out", str(child_out),
        ]
        done = subprocess.run(cmd, cwd=ROOT, capture_output=True, text=True)
        sys.stdout.write("\n".join(done.stdout.splitlines()[:-1]) + "\n")
        sys.stderr.write(done.stderr)
        if not child_out.exists():
            print(f"{name}: no result (exit {done.returncode})", file=sys.stderr)
            return 2
        with open(child_out, encoding="utf-8") as fh:
            records.append(json.load(fh)["workloads"][name])
        child_out.unlink()
    if args.out:
        _write(args.out, _document(records, args))
    print(_summary(records))
    return 0 if all(r["correct"] for r in records) else 1


def main(argv: Optional[List[str]] = None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", help="one workload (default: all, each in a fresh interpreter)")
    parser.add_argument("--seed", type=int, default=2023)
    parser.add_argument("--seconds", type=float, help="measuring time per workload (default: BENCHMARK.json run_seconds)")
    parser.add_argument("--trace", type=int, nargs="?", const=1, default=0, choices=(0, 1))
    parser.add_argument("--out", help="write the full run record as JSON")
    parser.add_argument("--size", choices=("full", "tiny"), default="full", help="tiny: self-test sizes")
    parser.add_argument("--probe", action="store_true", help=argparse.SUPPRESS)
    args = parser.parse_args(argv)

    refused = [var for var in REFUSED_ENV if var in os.environ]
    if refused:
        print(f"refusing to run with {', '.join(refused)} set: it changes the program", file=sys.stderr)
        return 2
    if not (SRC / "repro" / "__init__.py").is_file():
        print(f"simulator sources not found under {SRC}", file=sys.stderr)
        return 2
    try:
        bench = metrics.load()
    except (OSError, ValueError, KeyError) as exc:
        print(f"cannot read BENCHMARK.json: {exc}", file=sys.stderr)
        return 2
    sys.path.insert(0, str(SRC))
    if args.workload is not None and args.workload not in bench.workloads:
        parser.error(f"unknown workload {args.workload!r} (choose from {', '.join(bench.workloads)})")
    if args.seconds is None:
        args.seconds = bench.run_seconds

    if args.probe:
        print(*probe_seconds(args.workload, args.seed, args.size))
        return 0
    if args.workload is None:
        return _run_all(args, bench)

    spans_path = OUT_DIR / f"spans-{args.workload}-{args.seed}.jsonl" if args.trace else None
    record = measure(
        args.workload, args.seed, args.seconds, bool(args.trace), args.size, bench,
        spans_path,
    )
    print(_format(record, bench))
    if args.out:
        _write(args.out, _document([record], args))
    print(_summary([record]))
    return 0 if record["correct"] else 1


if __name__ == "__main__":
    sys.exit(main())

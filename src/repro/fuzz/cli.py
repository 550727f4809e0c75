"""``python -m repro fuzz`` — the campaign CLI, one path for every family.

Usage::

    python -m repro fuzz --budget 200 --seed 7     # full campaign
    python -m repro fuzz --workloads hashtable,dlist --schemes SLPMT
    python -m repro fuzz --replay repro.json       # re-run a reproducer
    python -m repro fuzz --hazard-demo             # catch the §IV-A bug
    python -m repro fuzz --faults                  # media-fault campaign
    python -m repro fuzz --faults --fault-kinds torn-tail
    python -m repro fuzz --multicore               # contention campaign
    python -m repro fuzz --multicore --cores 2,4 --thetas 0,0.9
    python -m repro fuzz --service                 # txn-service campaign
    python -m repro fuzz --service --batches 1,8 --schemes SLPMT
    python -m repro fuzz --twopc                   # cross-shard 2PC campaign
    python -m repro fuzz --twopc --shards 2,3 --schemes SLPMT

A campaign writes its table to ``benchmarks/results/fuzz_campaign.txt``
(``fault_``, ``multicore_``, ``service_`` or ``twopc_campaign.txt`` for
the other families; override with ``--out``) and exits 1 when any
invariant violation was found, 2 when a cell's worker crashed.  Every
violation of a family with reproducers is shrunk to a minimal one and
saved as ``<prefix>_repro_<n>.json`` next to the report.  Malformed
campaign input is a usage error before any cell runs: a budget, op
count, key count or duration below 1, a value size that is not a
positive multiple of the word size, an unknown or empty scheme,
workload or fault-kind list, or a ``--twopc`` shard count or value size
that :class:`~repro.shard.deployment.ShardedConfig` rejects (2–8
shards, values of at most 64 B).  A reproducer file ``--replay``
cannot use is one stderr line and exit 1 (2 when its fault coordinates
lie beyond the log entry they damage, which only the replay can tell).
"""

from __future__ import annotations

import argparse
import os
import sys
from typing import List, Sequence

from repro.common.errors import ArtifactError, ReproError, SimulationError
from repro.common.units import WORD_BYTES
from repro.core.schemes import scheme_by_name
from repro.faults import FAULT_KINDS
from repro.fuzz.campaign import (
    DEFAULT_CELLS,
    DEFAULT_SERVICE_CELLS,
    MULTICORE_SCHEMES,
    SERVICE_SCHEMES,
    SUBJECTS,
    FuzzCell,
    MultiCoreCell,
    ServiceCell,
)
from repro.fuzz.faultcampaign import DEFAULT_FAULT_SCHEMES, default_fault_cells
from repro.fuzz.kernel import FAMILIES, run_campaign
from repro.fuzz.minimize import Reproducer, minimize, replay
from repro.fuzz.report import format_report
from repro.fuzz.twopc import TWOPC_FAULTS, TWOPC_FUZZ_SCHEMES, TwoPCCell, shape_error
from repro.parallel.engine import WorkerCrash, print_progress, resolve_jobs
from repro.workloads import WORKLOADS

_RESULTS = os.path.join("benchmarks", "results")
DEFAULT_OUT = os.path.join(_RESULTS, "fuzz_campaign.txt")

#: Per family: report file and reproducer file prefix.
_FILES = {
    "crash": ("fuzz_campaign.txt", "fuzz"),
    "faults": ("fault_campaign.txt", "fault"),
    "multicore": ("multicore_campaign.txt", "multicore"),
    "service": ("service_campaign.txt", "service"),
    "twopc": ("twopc_campaign.txt", "twopc"),
}


def _positive(text: str) -> int:
    value = int(text)
    if value < 1:
        raise argparse.ArgumentTypeError(f"must be at least 1, got {value}")
    return value


def _value_bytes(text: str) -> int:
    value = int(text)
    if value < 1 or value % WORD_BYTES:
        raise argparse.ArgumentTypeError(
            f"must be a positive multiple of {WORD_BYTES}, got {value}"
        )
    return value


def _parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="python -m repro fuzz",
        description="Deterministic crash-consistency fuzzing campaign.",
    )
    parser.add_argument("--budget", type=_positive, default=None,
                        help="crash cases per cell (default 200; 24 for "
                             "the sampled cells of --faults)")
    parser.add_argument("--seed", type=int, default=7,
                        help="campaign RNG seed (default 7)")
    parser.add_argument("--ops", type=_positive, default=10,
                        help="operations per cell (default 10)")
    parser.add_argument("--value-bytes", type=_value_bytes, default=32,
                        help="value payload size, a positive multiple of "
                             f"{WORD_BYTES} (default 32)")
    parser.add_argument("--workloads", type=str, default=None,
                        help="comma-separated subject filter")
    parser.add_argument("--schemes", type=str, default=None,
                        help="comma-separated scheme filter")
    parser.add_argument("--out", type=str, default=DEFAULT_OUT,
                        help=f"report path (default {DEFAULT_OUT})")
    parser.add_argument("--replay", type=str, default=None, metavar="FILE",
                        help="re-run a JSON reproducer instead of a campaign")
    parser.add_argument("--hazard-demo", action="store_true",
                        help="run the deliberately mis-annotated tombstone "
                             "cell (Section IV-A) and shrink its violation")
    parser.add_argument("--faults", action="store_true",
                        help="run the media-fault injection campaign "
                             "(torn tails, bit flips, dropped drains)")
    parser.add_argument("--fault-kinds", type=str, default=None,
                        help="comma-separated fault-kind filter for "
                             "--faults (torn-tail,bit-flip,drop-drains)")
    parser.add_argument("--multicore", action="store_true",
                        help="run the multi-core contention crash campaign "
                             "(shared-key zipfian streams, crash at sampled "
                             "turn-switch points)")
    parser.add_argument("--service", action="store_true",
                        help="run the transaction-service group-commit "
                             "crash campaign (ack => durable at every "
                             "persist point)")
    parser.add_argument("--twopc", action="store_true",
                        help="run the cross-shard 2PC crash campaign "
                             "(coordinator/participant crashes at every "
                             "protocol step, torn/bit-flipped decision "
                             "records; global atomicity at every case)")
    parser.add_argument("--shards", type=str, default="2,3",
                        help="comma-separated shard counts for --twopc "
                             "(default 2,3)")
    parser.add_argument("--batches", type=str, default="1,8",
                        help="comma-separated group-commit batch sizes for "
                             "--service (default 1,8)")
    parser.add_argument("--duration", type=_positive, default=None,
                        metavar="CYCLES",
                        help="run each --service cell in duration mode: "
                             "clients submit until the simulated clock "
                             "passes CYCLES instead of a fixed request "
                             "count")
    parser.add_argument("--cores", type=str, default="1,2,4",
                        help="comma-separated core counts for --multicore "
                             "(default 1,2,4)")
    parser.add_argument("--thetas", type=str, default="0,0.9",
                        help="comma-separated zipfian skews for --multicore "
                             "(default 0,0.9)")
    parser.add_argument("--num-keys", type=_positive, default=16,
                        help="shared key-population size for --multicore "
                             "(default 16)")
    parser.add_argument("--jobs", type=int, default=None,
                        help="worker processes for the cell sweep "
                             "(default REPRO_JOBS or 1); the report is "
                             "byte-identical to a serial campaign")
    return parser


# ----------------------------------------------------------------------
# grid selection: every filter validated before any cell runs
# ----------------------------------------------------------------------


def _names(parser, flag: str, text: str, known: Sequence[str]) -> List[str]:
    names = [name.strip() for name in text.split(",")]
    unknown = sorted(set(names) - set(known))
    if unknown:
        parser.error(f"{flag}: unknown name(s) {unknown}")
    return names


def _schemes(parser, args, default: Sequence[str]) -> List[str]:
    if args.schemes is None:
        return list(default)
    schemes = [name.strip() for name in args.schemes.split(",")]
    for name in schemes:
        try:
            scheme_by_name(name)
        except ReproError as exc:
            parser.error(f"--schemes: {exc}")
    return schemes


def _workloads(parser, args, known: Sequence[str]) -> List[str]:
    if args.workloads is None:
        return ["hashtable"]
    return _names(parser, "--workloads", args.workloads, known)


def _numbers(parser, flag: str, text: str, kind, least, why: str) -> list:
    """*flag*'s comma-separated values, none below *least* (None: no bound)."""
    try:
        values = [kind(v) for v in text.split(",") if v.strip()]
    except ValueError as exc:
        parser.error(f"bad {flag} value: {exc}")
    if not values or (least is not None and any(v < least for v in values)):
        parser.error(f"{flag} needs {why}")
    return values


def _crash_grid(parser, args):
    cells = list(DEFAULT_CELLS)
    if args.workloads is not None:
        wanted = set(_names(parser, "--workloads", args.workloads, SUBJECTS))
        cells = [c for c in cells if c.workload in wanted]
    if args.schemes is not None:
        wanted = set(_schemes(parser, args, ()))
        cells = [c for c in cells if c.scheme in wanted]
    return cells, dict(num_ops=args.ops, value_bytes=args.value_bytes)


def _faults_grid(parser, args):
    subjects = SUBJECTS
    if args.workloads is not None:
        wanted = set(_names(parser, "--workloads", args.workloads, SUBJECTS))
        subjects = [s for s in SUBJECTS if s in wanted]
    kinds = list(FAULT_KINDS)
    if args.fault_kinds is not None:
        kinds = _names(parser, "--fault-kinds", args.fault_kinds, FAULT_KINDS)
    cells = default_fault_cells(
        subjects=subjects,
        schemes=_schemes(parser, args, DEFAULT_FAULT_SCHEMES),
        kinds=kinds,
    )
    return cells, dict(num_ops=args.ops, value_bytes=args.value_bytes)


def _multicore_grid(parser, args):
    cores = _numbers(parser, "--cores", args.cores, int, 1, "positive core counts")
    thetas = _numbers(parser, "--thetas", args.thetas, float, 0, "non-negative skews")
    workloads = _workloads(parser, args, WORKLOADS)
    schemes = _schemes(parser, args, MULTICORE_SCHEMES)
    cells = [
        MultiCoreCell(w, s, c, t)
        for w in workloads
        for s in schemes
        for c in cores
        for t in thetas
    ]
    knobs = dict(ops_per_core=args.ops, num_keys=args.num_keys, value_bytes=args.value_bytes)
    return cells, knobs


def _service_grid(parser, args):
    batches = _numbers(parser, "--batches", args.batches, int, 1, "positive batch sizes")
    knobs = dict(value_bytes=args.value_bytes, duration_cycles=args.duration)
    if args.workloads is None and args.schemes is None and args.batches == "1,8":
        # No grid filters: the default grid, including the composite
        # multi-structure cells behind the wound-wait lock manager.
        return list(DEFAULT_SERVICE_CELLS), knobs
    workloads = _workloads(parser, args, WORKLOADS)
    schemes = _schemes(parser, args, SERVICE_SCHEMES)
    # Composite subjects declare multiple lock structures; their cells
    # run behind the lock manager so cross-structure atomicity is judged
    # through it.
    cells = [
        ServiceCell(w, s, b, locking=(w == "multistruct"))
        for w in workloads
        for s in schemes
        for b in batches
    ]
    return cells, knobs


def _twopc_grid(parser, args):
    shards = _numbers(parser, "--shards", args.shards, int, None, "shard counts")
    problems = [("--shards", shape_error(num_shards=n)) for n in shards]
    problems.append(("--value-bytes", shape_error(value_bytes=args.value_bytes)))
    for flag, problem in problems:
        if problem is not None:
            parser.error(f"{flag}: {problem}")
    workloads = _workloads(parser, args, WORKLOADS)
    schemes = _schemes(parser, args, TWOPC_FUZZ_SCHEMES)
    cells = [
        TwoPCCell(w, s, n, fault)
        for w in workloads
        for s in schemes
        for n in shards
        for fault in TWOPC_FAULTS
    ]
    return cells, dict(value_bytes=args.value_bytes)


_GRIDS = {
    "crash": _crash_grid,
    "faults": _faults_grid,
    "multicore": _multicore_grid,
    "service": _service_grid,
    "twopc": _twopc_grid,
}


# ----------------------------------------------------------------------
# runs
# ----------------------------------------------------------------------


def _write(path: str, text: str) -> None:
    os.makedirs(os.path.dirname(path) or ".", exist_ok=True)
    with open(path, "w", encoding="utf-8") as fh:
        fh.write(text)


def _replay_main(path: str) -> int:
    try:
        with open(path, "r", encoding="utf-8") as fh:
            rep = Reproducer.from_json(fh.read())
    except (OSError, UnicodeDecodeError) as exc:
        print(f"cannot read reproducer: {exc}", file=sys.stderr)
        return 1
    except ArtifactError as exc:
        print(f"{path} is not a valid reproducer file: {exc}", file=sys.stderr)
        return 1
    try:
        result = replay(rep)
    except SimulationError as exc:
        # Coordinates the run cannot apply (a flipped word or a cut
        # beyond its entry) only show once the replay reaches them.
        print(f"replaying {path} failed: {exc}", file=sys.stderr)
        return 2
    print(f"replaying {path}: {rep.workload}/{rep.scheme}/{rep.policy} "
          f"@{rep.crash_kind}:{rep.crash_point} ({len(rep.ops)} ops)")
    if result.violation is None:
        print("no violation reproduced (expected: "
              f"[{rep.check}] {rep.violation})")
        return 1
    print(f"reproduced [{result.check}] {result.violation}")
    if result.violation != rep.violation or result.check != rep.check:
        print(f"MISMATCH: file records [{rep.check}] {rep.violation}")
        return 1
    print("violation matches the reproducer byte-for-byte")
    return 0


def _hazard_demo(args: argparse.Namespace) -> int:
    knobs = dict(num_ops=args.ops, value_bytes=args.value_bytes)
    result = run_campaign(
        [FuzzCell("hashtable", "SLPMT", "manual-buggy-tombstone")],
        budget=args.budget, seed=args.seed, **knobs,
    )
    print(format_report(result))
    if not result.violations:
        print("hazard NOT caught — the campaign should have found the "
              "mis-annotated tombstone")
        return 1
    rep = minimize(
        Reproducer.from_violation(result.violations[0], seed=args.seed, **knobs)
    )
    rep_path = os.path.join(os.path.dirname(args.out) or ".", "fuzz_repro_hazard.json")
    _write(rep_path, rep.to_json())
    print(f"hazard caught: [{rep.check}] {rep.violation}")
    print(f"minimal reproducer ({len(rep.ops)} ops, "
          f"{rep.crash_kind} point {rep.crash_point}) -> {rep_path}")
    replayed = replay(rep)
    if replayed.violation == rep.violation:
        print("reproducer replays to the identical violation")
        return 0
    print("REPLAY MISMATCH")
    return 1


def _campaign_main(name: str, cells, knobs, args: argparse.Namespace) -> int:
    family = FAMILIES[name]
    report_file, prefix = _FILES[name]
    out = args.out if args.out != DEFAULT_OUT else os.path.join(_RESULTS, report_file)
    jobs = resolve_jobs(args.jobs)
    try:
        result = run_campaign(
            cells, budget=args.budget, seed=args.seed, jobs=jobs,
            progress=print_progress if jobs > 1 else None, **knobs,
        )
    except WorkerCrash as exc:
        print(f"{name} campaign failed: {exc}", file=sys.stderr)
        return 2
    text = format_report(result)
    print(text, end="")
    _write(out, text)
    print(f"[report written to {out}]")
    if not result.violations:
        return 0
    for n, violation in enumerate(result.violations if family.shrink else ()):
        rep = minimize(Reproducer.from_violation(violation, seed=args.seed, **knobs))
        rep_path = os.path.join(os.path.dirname(out) or ".", f"{prefix}_repro_{n}.json")
        _write(rep_path, rep.to_json())
        print(f"[reproducer -> {rep_path}]")
    return 1


def fuzz_main(argv: "List[str] | None" = None) -> int:
    parser = _parser()
    args = parser.parse_args(argv)
    if args.replay:
        return _replay_main(args.replay)
    if args.hazard_demo:
        return _hazard_demo(args)
    name = next(
        (n for n in ("faults", "multicore", "service", "twopc") if getattr(args, n)),
        "crash",
    )
    if args.fault_kinds is not None and name != "faults":
        parser.error("--fault-kinds requires --faults")
    if args.duration is not None and name != "service":
        parser.error("--duration requires --service")
    cells, knobs = _GRIDS[name](parser, args)
    if not cells:
        parser.error("no cells selected")
    return _campaign_main(name, cells, knobs, args)

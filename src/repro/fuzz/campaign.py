"""The crash, multi-core contention and transaction-service families.

Each family below plugs into the campaign kernel
(:mod:`repro.fuzz.kernel`), which owns the clean run, point selection,
the case loop, the fan-out, the report table, the minimizer and the
CLI.  What stays here is each family's own: its cells and default grid,
the subject it builds, where it crashes, and how it judges the
recovered image.

**crash** (``python -m repro fuzz``) — a grid of (workload × scheme ×
annotation-policy) cells, each crashing the same deterministic op
sequence at

* **durability-event points** (``crash_after_persists``): every WPQ
  insert is a potential crash point *inside* a commit sequence, exactly
  where the Figure-4 persist ordering matters — enumerated exhaustively
  when they fit three quarters of the budget, seeded-sampled otherwise;
* **instruction-boundary points**: sampled crash points between
  simulated memory instructions (the
  :class:`~repro.recovery.crashsim.InstructionLimit` checkpoint hook),
  covering mid-transaction volatile states that never reach the WPQ.

After recovery the durable image is checked three ways: **structure**
(the workload's integrity invariants), **atomicity** (exactly the
committed prefix, or that prefix plus the in-flight op whose commit
marker may have become durable) and **differential** (both reference
states come from a clean run of the **FG baseline**, so any
scheme/policy that diverges from FG's durable semantics is caught).

**multicore** (``--multicore``) — N cores hammer one shared structure;
a power failure lands on a scheduler turn switch, and the image must be
the committed oracle plus any subset of the in-flight ops.

**service** (``--service``) — a group-committing transaction service;
every acknowledged write must be durable, and the only other legal
image adds one whole in-flight batch.
"""

from __future__ import annotations

import dataclasses
import random
from dataclasses import dataclass, field
from types import SimpleNamespace
from typing import Dict, List, Optional, Sequence, Tuple

from repro.common.config import DEFAULT_CONFIG, CacheConfig, SystemConfig
from repro.common.errors import PowerFailure, SimulationError
from repro.core.machine import Machine
from repro.core.schemes import scheme_by_name
from repro.fuzz.invariants import InvariantViolation, State, Subject, durable_state, make_subject
from repro.fuzz.kernel import (
    REST,
    Family,
    Pool,
    Violation,
    accept,
    durable_image,
    oracle_states,
    register,
    run_case,
    run_cell,
    structural,
)
from repro.fuzz.oplog import OpLog
from repro.recovery.crashsim import InstructionLimit
from repro.recovery.engine import recover
from repro.runtime.hints import (
    COMPILER_DEFAULT,
    MANUAL,
    NO_ANNOTATIONS,
    AnnotationPolicy,
    Hint,
)
from repro.runtime.ptx import PTx
from repro.workloads import WORKLOADS

#: One op: ``[kind, key, value]`` — JSON-serialisable on purpose, so a
#: minimised reproducer round-trips through a file unchanged.
Op = List


# ----------------------------------------------------------------------
# annotation policies, including the deliberate §IV-A mis-annotation
# ----------------------------------------------------------------------


@dataclass(frozen=True)
class _BuggyTombstonePolicy(AnnotationPolicy):
    """The Section IV-A hazard, on purpose.

    Treats tombstones like Pattern-1 new-allocation stores — log-free —
    instead of the correct lazy-but-logged combination.  The poisoned
    pre-existing node then persists in the LOGFREE_LINES commit phase
    *before* the commit marker, and a crash in that window rolls the
    transaction back around an already-clobbered node: the undo log has
    no pre-image to restore, so recovery resurrects a poisoned node.
    The campaign must catch this deterministically.
    """

    def flags(self, hint: Hint) -> Tuple[bool, bool]:
        if hint is Hint.TOMBSTONE:
            return (False, True)
        return super().flags(hint)


BUGGY_TOMBSTONE = _BuggyTombstonePolicy(
    name="manual-buggy-tombstone", honored=MANUAL.honored
)

#: Annotation policies addressable from cells and reproducer files.
POLICIES: Dict[str, AnnotationPolicy] = {
    "none": NO_ANNOTATIONS,
    "manual": MANUAL,
    "compiler": COMPILER_DEFAULT,
    "manual-buggy-tombstone": BUGGY_TOMBSTONE,
}


# ----------------------------------------------------------------------
# stress configuration: tiny caches force evictions, lazy-line drains,
# signature probes and WPQ pressure even at fuzz-sized op counts
# ----------------------------------------------------------------------

STRESS_CONFIG: SystemConfig = dataclasses.replace(
    DEFAULT_CONFIG,
    l1=CacheConfig(size_bytes=512, ways=2, latency_cycles=4),
    l2=CacheConfig(size_bytes=1024, ways=2, latency_cycles=12),
    l3=CacheConfig(size_bytes=8192, ways=4, latency_cycles=40),
)

_STRESS = "config=stress (512B/1KB/8KB caches)"


def _points(run: int, total: int, exhaustive: bool = False) -> str:
    """A report cell ``run/total``, marked when the sweep was exhaustive."""
    return f"{run}/{total}" + (" all" if exhaustive else "")


def _durability_pools(
    events: int,
    instrs: int,
    budget: int,
    persist_budget: Optional[int] = None,
    instr_budget: Optional[int] = None,
) -> List[Pool]:
    """Three quarters of the budget to durability-event points —
    exhaustively when they fit, sampled otherwise — and the remainder to
    sampled instruction boundaries (the single-machine families' split)."""
    if persist_budget is None:
        persist_budget = max(1, (budget * 3) // 4)
    return [
        Pool("persist", range(events), take=persist_budget),
        Pool("instr", range(instrs), take=REST if instr_budget is None else instr_budget),
    ]


def _arm_machine(machine: Machine, kind: str, point: int) -> None:
    if kind == "persist":
        machine.schedule_crash_after_persists(point)
    elif kind == "instr":
        machine.checkpoint = InstructionLimit(point)
    else:
        raise ValueError(f"unknown crash kind {kind!r}")


def _power_cycle(machine: Machine, subject) -> None:
    """Crash a single machine and recover it with the subject's hooks."""
    machine.checkpoint = None
    machine.crash()
    recover(machine.pm, mode=machine.scheme.logging_mode, hooks=[subject])


def _machine_gauge(machine: Machine) -> Tuple[int, int, int, int]:
    return (
        machine.wpq.total_inserts,
        machine.stats.instructions,
        machine.now,
        machine.stats.pm_bytes_written,
    )


# ----------------------------------------------------------------------
# crash family: cells, op generation, FG baseline
# ----------------------------------------------------------------------


@dataclass(frozen=True)
class FuzzCell:
    """One (workload × scheme × annotation-policy) campaign cell."""

    workload: str
    scheme: str
    policy: str

    def __str__(self) -> str:
        return f"{self.workload}/{self.scheme}/{self.policy}"


#: All fuzzable subjects: the Table-II workloads plus the in-place table.
SUBJECTS: Tuple[str, ...] = tuple(WORKLOADS) + ("inplace",)

#: The default campaign grid: every subject under the FG baseline and
#: the three selective schemes the paper's soundness claim covers.
DEFAULT_CELLS: Tuple[FuzzCell, ...] = tuple(
    FuzzCell(workload, scheme, policy)
    for workload in SUBJECTS
    for scheme, policy in (
        ("FG", "none"),
        ("FG+LG", "manual"),
        ("FG+LZ", "manual"),
        ("SLPMT", "manual"),
    )
)


@dataclass
class CellReport:
    """Coverage and outcome summary for one campaign cell."""

    cell: FuzzCell
    num_ops: int
    persist_points_total: int
    persist_points_run: int
    exhaustive: bool
    instr_points_total: int
    instr_points_run: int
    tx_commits: int
    #: Clean-run perf of the cell's op sequence (post-setup deltas from
    #: the dry run) — ties each cell's crash coverage to the cost of the
    #: execution it swept.
    cycles: int = 0
    pm_bytes: int = 0
    violations: List[Violation] = field(default_factory=list)

    @property
    def cases_run(self) -> int:
        return self.persist_points_run + self.instr_points_run


def generate_ops(workload: str, num_ops: int, seed: int) -> List[Op]:
    """A deterministic op sequence for *workload*.

    The mix exercises every op kind the structure supports: fresh
    inserts, value-replacing re-inserts, removes of live keys, heap
    extracts, in-place slot updates and checkpoints.  Keys are drawn
    from a wide space so bucket/trie paths vary between seeds.
    """
    rng = random.Random(f"ops:{workload}:{seed}:{num_ops}")
    ops: List[Op] = []
    if workload == "inplace":
        for i in range(num_ops):
            if i > 0 and rng.random() < 0.1:
                ops.append(["checkpoint", 0, 0])
            else:
                ops.append(["update", rng.randrange(32), rng.randrange(1, 1 << 32)])
        return ops

    kinds = WORKLOADS[workload].fuzz_ops
    live: List[int] = []
    used = set()
    for _ in range(num_ops):
        r = rng.random()
        if "extract" in kinds and live and r < 0.35:
            ops.append(["extract", 0, 0])
            live.remove(max(live))
        elif "remove" in kinds and live and r < 0.35:
            key = rng.choice(live)
            ops.append(["remove", key, 0])
            live.remove(key)
        elif "remove" in kinds and live and r < 0.45:
            # Value-replacing re-insert of a live key.
            ops.append(["insert", rng.choice(live), 0])
        else:
            key = rng.randrange(1, 1 << 40)
            while key in used:
                key = rng.randrange(1, 1 << 40)
            used.add(key)
            ops.append(["insert", key, 0])
            live.append(key)
    return ops


def apply_op(subject: Subject, op: Op) -> None:
    """Apply one driver op to a live subject (one durable operation)."""
    kind, key, value = op[0], op[1], op[2]
    if kind == "insert":
        subject.insert(key)
    elif kind == "remove":
        subject.remove(key)
    elif kind == "extract":
        subject.extract_max()
    elif kind == "update":
        subject.update({key: value})
    elif kind == "checkpoint":
        subject.checkpoint()
    else:
        raise ValueError(f"unknown fuzz op kind {kind!r}")


def _build(
    workload: str,
    scheme: str,
    policy: str,
    *,
    value_bytes: int,
    config: SystemConfig,
) -> Tuple[Machine, PTx, Subject]:
    machine = Machine(scheme_by_name(scheme), config)
    rt = PTx(machine, policy=POLICIES[policy])
    subject = make_subject(workload, rt, value_bytes=value_bytes)
    return machine, rt, subject


def baseline_states(
    workload: str,
    ops: Sequence[Op],
    *,
    value_bytes: int = 32,
    config: SystemConfig = STRESS_CONFIG,
) -> List[State]:
    """Durable logical state after every committed prefix of *ops*,
    measured on the FG baseline (every store logged and eagerly
    persisted), so ``states[k]`` is the reference for "k ops committed".
    """
    machine, _rt, subject = _build(
        workload, "FG", "none", value_bytes=value_bytes, config=config
    )
    states: List[State] = [durable_state(subject)]
    for op in ops:
        apply_op(subject, op)
        states.append(durable_state(subject))
    return states


class OpsRun:
    """One live single-core subject replaying an op list, with the FG
    reference states its judge compares against."""

    def __init__(self, cell, policy: str, knobs: Dict) -> None:
        self.machine, rt, self.subject = _build(
            cell.workload, cell.scheme, policy,
            value_bytes=knobs["value_bytes"], config=knobs["config"],
        )
        self.oplog = OpLog()
        rt.op_log = self.oplog
        self.ops = knobs["ops"]
        self.baseline = knobs["baseline"]
        self.committed = 0
        #: The armed media fault (media-fault family only).
        self.model = None

    def replay(self) -> None:
        for i, op in enumerate(self.ops):
            self.oplog.begin_op(i)
            apply_op(self.subject, op)
            self.committed += 1

    def check_two_state(self) -> None:
        """Structure, then exactly the committed prefix or — the
        in-flight op's commit marker may have become durable just before
        the crash reached the application — that prefix plus one."""
        legal = [self.baseline[self.committed]]
        if self.committed < len(self.ops):
            legal.append(self.baseline[self.committed + 1])
        accept(durable_image(self.subject), legal)


class CrashFamily(Family):
    """Single-core crash cases over one op sequence per workload."""

    name = "crash"
    cell_type = FuzzCell
    knobs = dict(
        num_ops=10,
        value_bytes=32,
        config=STRESS_CONFIG,
        ops=None,
        baseline=None,
        persist_budget=None,
        instr_budget=None,
    )
    budget = 200
    shrink = "ops"
    title = "SLPMT crash-consistency fuzz campaign"
    columns = (
        ("workload", 10, lambda c: c.cell.workload),
        ("scheme", 7, lambda c: c.cell.scheme),
        ("policy", 8, lambda c: c.cell.policy),
        ("ops", 4, lambda c: c.num_ops),
        ("persist-pts", 12, lambda c: _points(c.persist_points_run, c.persist_points_total, c.exhaustive)),
        ("instr-pts", 12, lambda c: _points(c.instr_points_run, c.instr_points_total)),
        ("cases", 6, lambda c: c.cases_run),
        ("commits", 8, lambda c: c.tx_commits),
        ("cycles", 9, lambda c: c.cycles),
        ("pm-bytes", 9, lambda c: c.pm_bytes),
        ("violations", 10, lambda c: len(c.violations)),
    )

    def policy(self, cell) -> str:
        return cell.policy

    def seed_key(self, cell, seed):
        return f"cell:{seed}:{cell.workload}:{cell.scheme}:{cell.policy}"

    def share(self, cell, seed, knobs, cache):
        """Ops and the FG baseline are per workload: every scheme crashes
        the identical op sequence, which is what makes the differential
        check meaningful."""
        if knobs["baseline"] is not None:
            return knobs
        cache = {} if cache is None else cache
        if cell.workload not in cache:
            ops = knobs["ops"]
            if ops is None:
                ops = generate_ops(cell.workload, knobs["num_ops"], seed)
            cache[cell.workload] = (ops, baseline_states(
                cell.workload, ops,
                value_bytes=knobs["value_bytes"], config=knobs["config"],
            ))
        ops, baseline = cache[cell.workload]
        return {**knobs, "ops": ops, "baseline": baseline}

    def build(self, cell, seed, knobs, *, clean=False):
        return OpsRun(cell, self.policy(cell), knobs)

    def gauge(self, run):
        return _machine_gauge(run.machine)

    def arm(self, run, kind, point):
        _arm_machine(run.machine, kind, point)

    def execute(self, run):
        run.replay()

    def judge(self, run, kind, point):
        _power_cycle(run.machine, run.subject)
        run.check_two_state()

    def settle(self, run):
        run.machine.cancel_scheduled_crash()
        run.machine.checkpoint = None
        with structural():
            run.subject.verify()

    def outcome(self, run):
        return run.committed, run.oplog.total_commits

    def measure(self, run, start):
        events, instrs, cycles, pm_bytes = (
            now - before for now, before in zip(_machine_gauge(run.machine), start)
        )
        return SimpleNamespace(
            events=events, instrs=instrs, tx_commits=run.oplog.total_commits,
            cycles=cycles, pm_bytes=pm_bytes,
        )

    def crash_space(self, cell, seed, budget, knobs, clean):
        return _durability_pools(
            clean.events, clean.instrs, budget,
            knobs["persist_budget"], knobs["instr_budget"],
        )

    def report(self, cell, knobs, clean, pools, fired):
        persist, instr = pools
        return CellReport(
            cell=cell,
            num_ops=len(knobs["ops"]),
            persist_points_total=persist.total,
            persist_points_run=len(persist.chosen),
            exhaustive=persist.full,
            instr_points_total=instr.total,
            instr_points_run=len(instr.chosen),
            tx_commits=clean.tx_commits,
            cycles=clean.cycles,
            pm_bytes=clean.pm_bytes,
        )

    def describe(self, result):
        knobs = result.knobs
        return [
            f"budget={result.budget} per cell, seed={result.seed}, "
            f"ops/cell={knobs['num_ops']}, value_bytes={knobs['value_bytes']}, "
            + _STRESS,
        ]

    def coverage(self, cells):
        exhaustive = sum(1 for c in cells if c.exhaustive)
        return f"{exhaustive} with exhaustive durability-point coverage"

    def freeze(self, cell, seed, knobs):
        ops = knobs["ops"]
        if ops is None:
            ops = generate_ops(cell.workload, knobs["num_ops"], seed)
        return dict(
            policy=self.policy(cell),
            value_bytes=knobs["value_bytes"],
            ops=[list(op) for op in ops],
        )

    def thaw(self, rep):
        cell = FuzzCell(rep.workload, rep.scheme, rep.policy)
        return cell, 0, dict(ops=rep.ops, value_bytes=rep.value_bytes)


CRASH = register(CrashFamily())


# ----------------------------------------------------------------------
# multi-core contention family
# ----------------------------------------------------------------------


@dataclass(frozen=True)
class MultiCoreCell:
    """One (workload × scheme × cores × θ) contention-campaign cell."""

    workload: str
    scheme: str
    cores: int
    theta: float

    def __str__(self) -> str:
        return f"{self.workload}/{self.scheme}/c{self.cores}/t{self.theta:g}"


#: Schemes the contention campaign sweeps by default: the FG baseline,
#: lazy persistency (whose cross-core forcing is the paper's §III-C3
#: hazard surface) and the full SLPMT design.
MULTICORE_SCHEMES: Tuple[str, ...] = ("FG", "FG+LZ", "SLPMT")

#: Default contention grid: shared hashtable, N ∈ {1, 2, 4}, uniform
#: and hot-key skew.  N=1 keeps a no-contention control in every sweep.
DEFAULT_MULTICORE_CELLS: Tuple[MultiCoreCell, ...] = tuple(
    MultiCoreCell("hashtable", scheme, cores, theta)
    for scheme in MULTICORE_SCHEMES
    for cores in (1, 2, 4)
    for theta in (0.0, 0.9)
)


@dataclass
class MultiCoreCellReport:
    """Coverage and outcome summary for one contention cell."""

    cell: MultiCoreCell
    ops_per_core: int
    #: Turn switches in the clean run = the cell's interleaving points.
    switch_points_total: int
    switch_points_run: int
    exhaustive: bool
    #: Clean-run contention profile (determinism witnesses: byte-equal
    #: between serial and --jobs N sweeps, and across reruns).
    conflicts: int
    aborts: int
    commits: int
    cycles: int = 0
    pm_bytes: int = 0
    violations: List[Violation] = field(default_factory=list)

    @property
    def cases_run(self) -> int:
        return self.switch_points_run


def _check_contention(subject: Subject, in_flight: List) -> None:
    """Post-crash acceptance for an N-core contention run.

    With N cores up to N transactions are in flight at the crash, so the
    single-core two-state check generalises to a state *family*: the
    durable image must equal the committed oracle plus **any subset** of
    the in-flight operations.  Concretely:

    * ``structure`` — the workload's own integrity invariants hold;
    * ``completeness`` — every committed key is durable, holding either
      its committed value or the value of an in-flight op on that key
      (whose commit marker may have become durable just before the
      crash unwound the worker);
    * ``exactness`` — every durable key is committed or in flight, and
      no key appears twice (a torn or resurrected node can never hide
      behind contention).

    The oracle is exact because it is updated inside the committing
    worker's scheduler turn, after ``run_atomically`` returns — commit
    order and oracle order coincide by construction.
    """
    state = durable_image(subject)
    committed = {k: tuple(v) for k, v in subject.expected.items()}
    pending: Dict[int, set] = {}
    for op in in_flight:
        if op is not None:
            pending.setdefault(op.key, set()).add(tuple(op.value))

    seen = set()
    for key, value in state:
        if key in seen:
            raise InvariantViolation(
                "exactness", f"key {key} appears twice in the durable structure"
            )
        seen.add(key)
        allowed = pending.get(key, set()) | (
            {committed[key]} if key in committed else set()
        )
        if not allowed:
            raise InvariantViolation(
                "exactness", f"uncommitted key {key} present in the durable state"
            )
        if value not in allowed:
            raise InvariantViolation(
                "completeness",
                f"key {key} holds a value that is neither its committed "
                f"nor any in-flight value",
            )
    missing = sorted(k for k in committed if k not in seen)
    if missing:
        raise InvariantViolation(
            "completeness",
            f"committed key(s) {missing[:4]} missing from the durable state",
        )


class MultiCoreFamily(Family):
    """Crashes at scheduler turn switches of a shared-key contention run."""

    name = "multicore"
    cell_type = MultiCoreCell
    knobs = dict(ops_per_core=12, num_keys=16, value_bytes=32, config=STRESS_CONFIG)
    budget = 60
    title = "SLPMT multi-core contention crash campaign"
    columns = (
        ("workload", 10, lambda c: c.cell.workload),
        ("scheme", 7, lambda c: c.cell.scheme),
        ("cores", 5, lambda c: c.cell.cores),
        ("theta", 5, lambda c: f"{c.cell.theta:g}"),
        ("switch-pts", 12, lambda c: _points(c.switch_points_run, c.switch_points_total, c.exhaustive)),
        ("cases", 6, lambda c: c.cases_run),
        ("conflicts", 9, lambda c: c.conflicts),
        ("aborts", 7, lambda c: c.aborts),
        ("commits", 8, lambda c: c.commits),
        ("cycles", 9, lambda c: c.cycles),
        ("pm-bytes", 9, lambda c: c.pm_bytes),
        ("violations", 10, lambda c: len(c.violations)),
    )

    def seed_key(self, cell, seed):
        return f"mc:{seed}:{cell}"

    def build(self, cell, seed, knobs, *, clean=False):
        from repro.multicore.system import MultiCoreSystem
        from repro.workloads.shared import generate_streams

        system = MultiCoreSystem(
            cell.cores, scheme_by_name(cell.scheme), knobs["config"], seed=seed
        )
        subject = WORKLOADS[cell.workload](
            system.runtimes[0], value_bytes=knobs["value_bytes"]
        )
        streams = generate_streams(
            cell.cores,
            knobs["ops_per_core"],
            theta=cell.theta,
            num_keys=knobs["num_keys"],
            value_words=subject.value_words,
            seed=seed,
        )
        return SimpleNamespace(system=system, subject=subject, streams=streams, in_flight=[])

    def gauge(self, run):
        return (
            sum(core.now for core in run.system.cores),
            run.system.merged_stats().pm_bytes_written,
        )

    def arm(self, run, kind, point):
        if kind != "switch":
            raise ValueError(f"unknown crash kind {kind!r}")
        run.system.scheduler.crash_at_switch = point

    def execute(self, run):
        from repro.workloads.shared import replay_contention

        run.in_flight = replay_contention(run.system, run.subject, run.streams)
        if run.system.scheduler.crashed:
            raise PowerFailure("power failure at an armed turn switch")

    def judge(self, run, kind, point):
        run.system.crash()
        recover(
            run.system.pm,
            mode=run.system.cores[0].scheme.logging_mode,
            hooks=[run.subject],
        )
        _check_contention(run.subject, run.in_flight)

    def settle(self, run):
        run.system.fence_all()
        with structural():
            run.subject.verify(durable=True)

    def outcome(self, run):
        return len(run.subject.expected), run.system.total_commits()

    def measure(self, run, start):
        run.system.fence_all()
        run.subject.verify(durable=True)
        stats = run.system.merged_stats()
        cycles0, pm0 = start
        return SimpleNamespace(
            switches=run.system.scheduler.switches,
            conflicts=run.system.conflicts,
            aborts=stats.aborts,
            commits=stats.commits,
            cycles=sum(core.now for core in run.system.cores) - cycles0,
            pm_bytes=stats.pm_bytes_written - pm0,
        )

    def crash_space(self, cell, seed, budget, knobs, clean):
        # Switch 1 is the pre-run turn draw; crashing there still
        # exercises the all-volatile-lost path, so the range starts at 1.
        return [Pool("switch", range(1, clean.switches + 1), take=budget)]

    def report(self, cell, knobs, clean, pools, fired):
        (switch,) = pools
        return MultiCoreCellReport(
            cell=cell,
            ops_per_core=knobs["ops_per_core"],
            switch_points_total=switch.total,
            switch_points_run=len(switch.chosen),
            exhaustive=switch.full,
            conflicts=clean.conflicts,
            aborts=clean.aborts,
            commits=clean.commits,
            cycles=clean.cycles,
            pm_bytes=clean.pm_bytes,
        )

    def describe(self, result):
        knobs = result.knobs
        return [
            f"budget={result.budget} crash points per cell, seed={result.seed}, "
            f"ops/core={knobs['ops_per_core']}, keys={knobs['num_keys']}, "
            f"value_bytes={knobs['value_bytes']}, " + _STRESS,
        ]

    def coverage(self, cells):
        exhaustive = sum(1 for c in cells if c.exhaustive)
        return f"{exhaustive} with exhaustive switch-point coverage"


MULTICORE = register(MultiCoreFamily())


# ----------------------------------------------------------------------
# transaction-service family (group-commit durability)
# ----------------------------------------------------------------------


@dataclass(frozen=True)
class ServiceCell:
    """One (workload × scheme × group-commit batch size) service cell.

    ``locking`` routes write batches through the wound-wait lock
    manager with round-robin batch fill — the multi-structure
    configuration the composite workloads exercise.
    """

    workload: str
    scheme: str
    batch_size: int
    locking: bool = False

    def __str__(self) -> str:
        suffix = "+lk" if self.locking else ""
        return f"svc/{self.workload}/{self.scheme}/b{self.batch_size}{suffix}"


#: Schemes the service campaign sweeps by default: the FG baseline and
#: the full design.
SERVICE_SCHEMES: Tuple[str, ...] = ("FG", "SLPMT")

#: Default service campaign grid: each scheme with and without group
#: commit over the hashtable (the structure whose O(1) paths keep
#: per-case cost low enough for exhaustive durability-event sweeps),
#: plus the composite multi-structure workload behind the wound-wait
#: lock manager — every ``multistruct`` insert spans map, queue and
#: counter, so these cells prove cross-structure atomicity through the
#: lock manager at every crash point.
DEFAULT_SERVICE_CELLS: Tuple[ServiceCell, ...] = tuple(
    ServiceCell("hashtable", scheme, batch)
    for scheme in SERVICE_SCHEMES
    for batch in (1, 8)
) + tuple(
    ServiceCell("multistruct", scheme, 8, locking=True)
    for scheme in SERVICE_SCHEMES
)

#: Service campaign traffic: write-heavy with multi-key transactions so
#: a group commit's all-or-nothing set spans clients and keys.
SERVICE_FUZZ_MIX: Dict[str, float] = {
    "put": 0.65,
    "get": 0.15,
    "scan": 0.05,
    "txn": 0.15,
}


@dataclass
class ServiceCellReport:
    """Coverage and outcome summary for one service cell."""

    cell: ServiceCell
    num_requests: int
    persist_points_total: int
    persist_points_run: int
    exhaustive: bool
    instr_points_total: int
    instr_points_run: int
    #: Clean-run service profile (determinism witnesses).
    batches: int
    acked: int
    cycles: int = 0
    pm_bytes: int = 0
    #: Clean-run windowed telemetry: steady-state detection over the
    #: acked-per-window series (see :mod:`repro.obs.steady`).
    windows: int = 0
    steady: bool = False
    window_lo: int = 0
    window_hi: int = 0
    steady_kcyc: float = 0.0
    violations: List[Violation] = field(default_factory=list)

    @property
    def cases_run(self) -> int:
        return self.persist_points_run + self.instr_points_run


def _build_service(
    cell: ServiceCell,
    *,
    num_clients: int,
    requests_per_client: int,
    value_bytes: int,
    seed: int,
    config: SystemConfig,
    telemetry=None,
    duration_cycles: Optional[int] = None,
):
    """A fresh transaction service for one campaign case.

    ``block`` admission so every request eventually commits (maximum
    durability surface), open-loop arrivals fast enough to keep batches
    full, and ``verify=False`` — the campaign applies its own two-state
    acceptance check instead of the clean-run verify.  Locking cells
    route batches through the wound-wait lock manager with round-robin
    batch fill (the fill order the lock manager's deferral re-queueing
    is designed against)."""
    from repro.service.admission import AdmissionPolicy
    from repro.service.server import ServiceConfig, TransactionService
    from repro.service.tm import GroupCommitPolicy

    return TransactionService(
        ServiceConfig(
            workload=cell.workload,
            scheme=cell.scheme,
            num_clients=num_clients,
            requests_per_client=requests_per_client,
            value_bytes=value_bytes,
            num_keys=24,
            theta=0.6,
            mix=dict(SERVICE_FUZZ_MIX),
            arrival_cycles=600,
            batch=GroupCommitPolicy(batch_size=cell.batch_size),
            admission=AdmissionPolicy(
                max_depth=64,
                mode="block",
                fairness="round-robin" if cell.locking else "fifo",
            ),
            seed=seed,
            verify=False,
            locking=cell.locking,
            duration_cycles=duration_cycles,
        ),
        config=config,
        telemetry=telemetry,
    )


def _check_service_recovered(svc) -> Tuple[Optional[str], str]:
    """Post-crash acceptance for a transaction-service run; returns
    ``(violation message, check)``, or ``(None, "")`` when legal.

    The service's durability contract is judged against its *committed
    oracle* (every acknowledged write, folded in at group commit) and
    the in-flight batch:

    * ``structure`` — the workload's integrity invariants hold;
    * **ack ⇒ durable** — the durable logical state contains every
      acknowledged write's exact effect (the oracle state);
    * **atomicity** — the only other legal image is the oracle plus the
      *entire* in-flight batch applied in batch order.  A partial batch
      — some requests' effects durable, others' not — is a violation,
      as is any unacknowledged effect outside the in-flight batch.
    """
    subject = svc.subject
    try:
        accept(durable_image(subject), oracle_states(svc.rm.committed, svc.inflight))
    except InvariantViolation as exc:
        return exc.message, exc.check

    # Cross-structure atomicity: on composite subjects the durable
    # queue chain and event counter must land on the same side of the
    # commit boundary as the map image — the acknowledged chain (queue
    # facet order) or that plus the whole in-flight batch, never a mix.
    if hasattr(subject, "queue_keys") and "queue" in getattr(
        svc.rm, "structures", {}
    ):
        read = subject.reader(durable=True)
        try:
            chain = tuple(subject.queue_keys(read))
            counter = subject.counter_value(read)
        except SimulationError as exc:
            return f"durable queue traversal failed: {exc}", "xstructure"
        acked_chain = tuple(svc.rm.structures["queue"].order)
        legal_chains = [acked_chain]
        if svc.inflight:
            legal_chains.append(
                acked_chain
                + tuple(k for r in svc.inflight for k in r.keys)
            )
        if chain not in legal_chains:
            return (
                f"durable queue chain ({len(chain)} nodes) matches "
                f"neither the acked chain ({len(acked_chain)}) nor "
                f"acked+inflight ({len(legal_chains[-1])})",
                "xstructure",
            )
        if counter != len(chain):
            return (
                f"durable counter {counter} != queue chain length "
                f"{len(chain)}",
                "xstructure",
            )
    return None, ""


def _finish_service(svc) -> None:
    svc.finish()
    svc.rm.sync_expected()
    svc.subject.verify(durable=True)


class ServiceFamily(Family):
    """Crashes inside a group-committing transaction service."""

    name = "service"
    cell_type = ServiceCell
    knobs = dict(
        num_clients=5,
        requests_per_client=16,
        value_bytes=32,
        config=STRESS_CONFIG,
        duration_cycles=None,
    )
    budget = 150
    shrink = "volume"
    title = "SLPMT transaction-service group-commit crash campaign"
    columns = (
        ("workload", 10, lambda c: c.cell.workload),
        ("scheme", 7, lambda c: c.cell.scheme),
        ("batch", 5, lambda c: c.cell.batch_size),
        ("reqs", 5, lambda c: c.num_requests),
        ("persist-pts", 12, lambda c: _points(c.persist_points_run, c.persist_points_total, c.exhaustive)),
        ("instr-pts", 12, lambda c: _points(c.instr_points_run, c.instr_points_total)),
        ("cases", 6, lambda c: c.cases_run),
        ("commits", 8, lambda c: c.batches),
        ("acked", 6, lambda c: c.acked),
        ("cycles", 9, lambda c: c.cycles),
        ("pm-bytes", 9, lambda c: c.pm_bytes),
        ("steady-win", 11, lambda c: f"{c.window_lo}..{c.window_hi}/{c.windows}" + ("" if c.steady else "!")),
        ("kcyc", 6, lambda c: f"{c.steady_kcyc:g}"),
        ("violations", 10, lambda c: len(c.violations)),
    )

    def seed_key(self, cell, seed):
        return f"svc-cell:{seed}:{cell}"

    def build(self, cell, seed, knobs, *, clean=False):
        # The clean run carries a windowed telemetry registry (passive,
        # so the crash points it derives are unaffected); its
        # steady-state summary lands in the report.
        from repro.obs.telemetry import TelemetryWindows

        telemetry = TelemetryWindows(window_cycles=1024) if clean else None
        return _build_service(cell, seed=seed, telemetry=telemetry, **knobs)

    def gauge(self, svc):
        return _machine_gauge(svc.machine)

    def arm(self, svc, kind, point):
        _arm_machine(svc.machine, kind, point)

    def execute(self, svc):
        svc.serve()

    def judge(self, svc, kind, point):
        _power_cycle(svc.machine, svc.subject)
        message, check = _check_service_recovered(svc)
        if message is not None:
            raise InvariantViolation(check, message)

    def settle(self, svc):
        svc.machine.cancel_scheduled_crash()
        svc.machine.checkpoint = None
        with structural():
            _finish_service(svc)

    def outcome(self, svc):
        return len(svc.rm.committed), svc.tm.commits

    def measure(self, svc, start):
        from repro.obs.steady import steady_summary

        events0, instrs0, cycles0, pm0 = start
        events = svc.machine.wpq.total_inserts - events0
        instrs = svc.machine.stats.instructions - instrs0
        result = svc.result()
        # Clean-run sanity: the service's own fence + verify must pass
        # before any crash case of this cell is trusted.
        _finish_service(svc)
        fine = svc.telemetry
        return SimpleNamespace(
            events=events,
            instrs=instrs,
            result=result,
            cycles=svc.machine.now - cycles0,
            pm_bytes=svc.machine.stats.pm_bytes_written - pm0,
            steady=steady_summary(fine.rebinned(max(1, fine.num_windows // 8))),
        )

    def crash_space(self, cell, seed, budget, knobs, clean):
        return _durability_pools(clean.events, clean.instrs, budget)

    def report(self, cell, knobs, clean, pools, fired):
        persist, instr = pools
        steady = clean.steady
        return ServiceCellReport(
            cell=cell,
            num_requests=clean.result.requests,
            persist_points_total=persist.total,
            persist_points_run=len(persist.chosen),
            exhaustive=persist.full,
            instr_points_total=instr.total,
            instr_points_run=len(instr.chosen),
            batches=clean.result.batches,
            acked=clean.result.acked,
            cycles=clean.cycles,
            pm_bytes=clean.pm_bytes,
            windows=steady["windows_total"],
            steady=steady["steady"],
            window_lo=steady["window_lo"],
            window_hi=steady["window_hi"],
            steady_kcyc=steady["throughput_kcyc"],
        )

    def describe(self, result):
        knobs = result.knobs
        return [
            f"budget={result.budget} per cell, seed={result.seed}, "
            f"clients={knobs['num_clients']}x{knobs['requests_per_client']} "
            f"requests, value_bytes={knobs['value_bytes']}, " + _STRESS,
            "acceptance: every acked request durable; unacked requests absent "
            "or one whole in-flight batch",
        ]

    def coverage(self, cells):
        exhaustive = sum(1 for c in cells if c.exhaustive)
        return f"{exhaustive} with exhaustive durability-point coverage"

    def freeze(self, cell, seed, knobs):
        return dict(
            policy="none",
            value_bytes=knobs["value_bytes"],
            ops=[],
            service={
                "batch_size": cell.batch_size,
                "locking": cell.locking,
                "num_clients": knobs["num_clients"],
                "requests_per_client": knobs["requests_per_client"],
                "seed": seed,
            },
        )

    def thaw(self, rep):
        service = rep.service
        cell = ServiceCell(
            rep.workload, rep.scheme, service["batch_size"], locking=service["locking"]
        )
        return cell, service["seed"], dict(
            num_clients=service["num_clients"],
            requests_per_client=service["requests_per_client"],
            value_bytes=rep.value_bytes,
        )


SERVICE = register(ServiceFamily())

#: One service cell's sweep and one service case: the kernel's, with a
#: :class:`ServiceCell`.
run_service_cell = run_cell
run_service_case = run_case

"""The crash-campaign kernel: one sweep for every fuzz family.

Five campaign families check that SLPMT's log-free and lazy stores,
used under the paper's §IV-A annotation rules, never lose committed
data: the single-core crash campaign, the media-fault campaign, the
multi-core contention campaign, the transaction-service campaign and
the cross-shard 2PC campaign.  They differ in what they build, where
they crash it and how they judge the recovered image.  Everything else
is this module.

A family is a :class:`Family` and supplies:

* ``build(cell, seed, knobs)`` — a fresh, deterministic subject (a
  machine replaying an op list, a multi-core system, a transaction
  service, a sharded deployment);
* ``crash_space(cell, seed, budget, knobs, clean)`` — the named
  :class:`Pool` s of crash points its clean run exposes, with their
  totals;
* ``arm(run, kind, point)`` — plan the crash or media fault of one case;
* ``judge(run, kind, point)`` — power off, recover, and check the
  durable image, raising :class:`~repro.fuzz.invariants.
  InvariantViolation` on failure;
* its cell-report dataclass and report columns.

The kernel owns the generic machinery: the clean run (:func:`clean_run`),
budgeted exhaustive-or-seeded point selection (:func:`select`), the
build → arm → run → crash → recover → judge case loop (:func:`play`,
:func:`run_cell`), the :class:`CampaignResult`, the fan-out over
:func:`repro.parallel.engine.run_tasks` (:func:`run_campaign`), and the
media-fault double judgement both media families share
(:func:`judge_media`).  The report table (:mod:`repro.fuzz.report`),
the reproducer and minimizer (:mod:`repro.fuzz.minimize`) and the CLI
(:mod:`repro.fuzz.cli`) are written once against it too.

Everything is seeded and free of wall-clock time: a cell's sampled
points derive from the family's seed string for ``(cell, seed)`` alone,
so serial and ``--jobs N`` campaigns produce byte-identical reports and
every violation replays exactly.
"""

from __future__ import annotations

import random
from contextlib import contextmanager
from dataclasses import dataclass, field
from typing import Any, Callable, Dict, Iterator, List, Optional, Sequence, Tuple

from repro.common.errors import (
    LogChecksumError,
    PowerFailure,
    RecoveryError,
    SimulationError,
    TornLogError,
)
from repro.faults import BitFlip, DropDrains, FaultModel, TornAppend
from repro.fuzz.invariants import InvariantViolation, State, durable_state
from repro.recovery.engine import recover

#: :attr:`Pool.take` of a pool that gets what the cell budget has left
#: after the pools before it.
REST = -1


# ----------------------------------------------------------------------
# results
# ----------------------------------------------------------------------


@dataclass
class Violation:
    """One judged failure, with everything needed to reproduce it.

    A ``"fault"`` case carries its media-fault coordinates in *fault*;
    *crash_point* then mirrors the dict's drain point, cut or bit.
    """

    cell: Any
    crash_kind: str
    crash_point: int
    check: str
    message: str
    fault: Optional[Dict] = None

    def __str__(self) -> str:
        where = f"@{self.crash_kind}:{self.crash_point}"
        if self.fault is not None:
            where = f"@{self.fault}"
        return f"{self.cell} {where} [{self.check}] {self.message}"


@dataclass
class CaseResult:
    """Outcome of one crash-inject-recover-check case."""

    crashed: bool
    committed_ops: int
    tx_commits: int
    violation: Optional[str] = None
    check: str = ""


@dataclass
class CampaignResult:
    """A whole campaign: its family, parameters and every cell report."""

    family: str
    budget: int
    seed: int
    knobs: Dict[str, Any]
    cells: List = field(default_factory=list)

    @property
    def total_cases(self) -> int:
        return sum(c.cases_run for c in self.cells)

    @property
    def violations(self) -> List[Violation]:
        return [v for c in self.cells for v in c.violations]


# ----------------------------------------------------------------------
# crash spaces and point selection
# ----------------------------------------------------------------------


@dataclass
class Pool:
    """One named pool of crash points a cell's clean run exposes.

    *kind* is the crash kind a case arms for each point; a pool spanning
    several machines has no kind and holds ``(kind, point)`` pairs.
    *take* is how many points the cell runs: ``None`` for all of them,
    :data:`REST` for what the budget has left, or a count.  *strata*
    groups the points, so a sampled pool still covers every group.
    :func:`select` fills *chosen*.
    """

    kind: Optional[str]
    points: Sequence
    take: Optional[int] = None
    strata: Optional[Callable[[Any], str]] = None
    chosen: List = field(default_factory=list)

    @property
    def total(self) -> int:
        return len(self.points)

    @property
    def full(self) -> bool:
        return len(self.chosen) == len(self.points)

    def case(self, point) -> Tuple[str, Any]:
        """The ``(crash kind, crash point)`` a case arms for *point*."""
        return point if self.kind is None else (self.kind, point)

    def choose(self, k: int, rng: random.Random) -> List:
        """Every point when *k* covers them all (exhaustive), else a
        seeded sample of *k*, in pool order."""
        if len(self.points) <= k:
            return list(self.points)
        if self.strata is None:
            picked = rng.sample(range(len(self.points)), k)
        else:
            picked = self._stratified(k, rng)
        return [self.points[i] for i in sorted(picked)]

    def _stratified(self, k: int, rng: random.Random) -> List[int]:
        # Round-robin over the groups (each shuffled by the cell RNG),
        # so even a small budget crashes once per group.
        groups: Dict[str, List[int]] = {}
        for index, point in enumerate(self.points):
            groups.setdefault(self.strata(point), []).append(index)
        lanes = [groups[name] for name in sorted(groups)]
        for lane in lanes:
            rng.shuffle(lane)
        picked: List[int] = []
        depth = 0
        while len(picked) < k and any(depth < len(lane) for lane in lanes):
            for lane in lanes:
                if depth < len(lane) and len(picked) < k:
                    picked.append(lane[depth])
            depth += 1
        return picked


def select(pools: Sequence[Pool], budget: int, rng: random.Random) -> None:
    """Budgeted exhaustive-or-seeded point selection over a cell's pools,
    in order, all drawing on the one cell RNG."""
    used = 0
    for pool in pools:
        if pool.take is None:
            k = len(pool.points)
        elif pool.take == REST:
            k = max(0, budget - used)
        else:
            k = pool.take
        pool.chosen = pool.choose(k, rng)
        used += len(pool.chosen)


# ----------------------------------------------------------------------
# the family protocol
# ----------------------------------------------------------------------


class Family:
    """What a campaign family supplies to the kernel (see module docstring).

    A *run* is whatever ``build`` returns; the kernel only hands it back
    to the family's own hooks.
    """

    #: Registry key; also the CLI flag that selects the family.
    name: str = ""
    #: The family's cell dataclass.
    cell_type: type = object
    #: Campaign knobs beyond budget and seed, with their defaults.
    knobs: Dict[str, Any] = {}
    #: Default per-cell case budget.
    budget: int = 0
    #: How the minimizer shrinks a reproducer: ``"ops"`` (the op list),
    #: ``"volume"`` (clients and requests), or None (no reproducers).
    shrink: Optional[str] = None
    #: Report headline and ``(column, width, cell report -> value)``.
    title: str = ""
    columns: Tuple[Tuple[str, int, Callable[[Any], Any]], ...] = ()

    def seed_key(self, cell, seed: int) -> str:
        """The seed string of the cell RNG :func:`select` draws from."""
        raise NotImplementedError

    def share(self, cell, seed: int, knobs: Dict, cache: Optional[Dict]) -> Dict:
        """Fill in knobs that are computed once and shared across cells
        (*cache* spans one campaign; None outside one)."""
        return knobs

    def build(self, cell, seed: int, knobs: Dict, *, clean: bool = False):
        raise NotImplementedError

    def gauge(self, run):
        """Counters read before the clean run, for :meth:`measure`."""
        raise NotImplementedError

    def arm(self, run, kind: str, point) -> None:
        raise NotImplementedError

    def execute(self, run) -> None:
        """Run the subject; raises :class:`PowerFailure` on a crash."""
        raise NotImplementedError

    def judge(self, run, kind: str, point) -> None:
        """Power off, recover and check the crashed *run*."""
        raise NotImplementedError

    def settle(self, run) -> None:
        """Finish and verify a run whose armed point was never reached."""
        raise NotImplementedError

    def outcome(self, run) -> Tuple[int, int]:
        """``(committed ops, committed transactions)`` of a judged run."""
        raise NotImplementedError

    def measure(self, run, start):
        """What the clean run exposes: crash-space totals, report figures."""
        raise NotImplementedError

    def crash_space(self, cell, seed: int, budget: int, knobs: Dict, clean) -> List[Pool]:
        raise NotImplementedError

    def report(self, cell, knobs: Dict, clean, pools: List[Pool], fired: int):
        """The cell report; the kernel appends its violations."""
        raise NotImplementedError

    def describe(self, result: CampaignResult) -> List[str]:
        """Report lines between the headline and the table."""
        raise NotImplementedError

    def coverage(self, cells: List) -> str:
        """The coverage note of the report's ``cells:`` line."""
        raise NotImplementedError

    def freeze(self, cell, seed: int, knobs: Dict) -> Dict:
        """The family's own reproducer fields (policy, value_bytes, ops,
        and a ``service`` or ``twopc`` block)."""
        raise NotImplementedError

    def thaw(self, rep) -> Tuple[Any, int, Dict]:
        """``(cell, seed, knobs)`` that replay a reproducer."""
        raise NotImplementedError


#: Every registered family, by name.
FAMILIES: Dict[str, Family] = {}


def register(family: Family) -> Family:
    FAMILIES[family.name] = family
    return family


def family_of(cell) -> Family:
    for family in FAMILIES.values():
        if type(cell) is family.cell_type:
            return family
    raise TypeError(f"no campaign family runs cells like {cell!r}")


def _setup(cell, seed: int, knobs: Dict, cache: Optional[Dict] = None) -> Tuple[Family, Dict]:
    family = family_of(cell)
    unknown = sorted(set(knobs) - set(family.knobs))
    if unknown:
        raise TypeError(f"unknown {family.name} campaign knob(s) {unknown}")
    return family, family.share(cell, seed, {**family.knobs, **knobs}, cache)


def shared_knobs(cell, *, seed: int, **knobs) -> Dict:
    """*knobs* with the family's defaults and shared values (the op list
    and FG baseline of the op families) filled in, so a series of cases
    computes them once."""
    return _setup(cell, seed, knobs)[1]


# ----------------------------------------------------------------------
# the case loop
# ----------------------------------------------------------------------


def play(family: Family, run, kind: str, point) -> CaseResult:
    """Arm a freshly built *run*, run it, and judge it: the recovered
    image after a crash, or the clean finish when the armed point lay
    beyond the run (caller-chosen points only)."""
    family.arm(run, kind, point)
    try:
        family.execute(run)
        crashed = False
    except PowerFailure:
        crashed = True
    violation, check = None, ""
    try:
        if crashed:
            family.judge(run, kind, point)
        else:
            family.settle(run)
    except InvariantViolation as exc:
        violation, check = exc.message, exc.check
    committed, commits = family.outcome(run)
    return CaseResult(crashed, committed, commits, violation, check)


def run_case(cell, kind: str, point, *, seed: int, **knobs) -> CaseResult:
    """One crash-inject-recover-check case of *cell*'s family."""
    family, knobs = _setup(cell, seed, knobs)
    return play(family, family.build(cell, seed, knobs), kind, point)


def _clean(family: Family, cell, seed: int, knobs: Dict):
    run = family.build(cell, seed, knobs, clean=True)
    start = family.gauge(run)
    family.execute(run)
    return family.measure(run, start)


def clean_run(cell, *, seed: int, **knobs):
    """The cell's clean run: the same build every case crashes, run to
    completion, measured by its family."""
    family, knobs = _setup(cell, seed, knobs)
    return _clean(family, cell, seed, knobs)


def crash_cases(cell, *, seed: int, **knobs) -> List[Tuple[str, Any]]:
    """Every ``(kind, point)`` of the cell's crash space, pool by pool."""
    family, knobs = _setup(cell, seed, knobs)
    pools = family.crash_space(cell, seed, 0, knobs, _clean(family, cell, seed, knobs))
    return [pool.case(point) for pool in pools for point in pool.points]


def violation(cell, kind: str, point, check: str, message: str) -> Violation:
    """The :class:`Violation` of a failed ``(kind, point)`` case."""
    if kind != "fault":
        return Violation(cell, kind, point, check, message)
    mirror = point.get("crash_point", point.get("cut", point.get("bit", 0)))
    return Violation(cell, kind, int(mirror), check, message, fault=point)


def run_cell(cell, *, budget: int, seed: int, **knobs):
    """Sweep one cell: its clean run, point selection, and one case per
    chosen point.  Everything derives from ``(cell, seed)``."""
    family, knobs = _setup(cell, seed, knobs)
    clean = _clean(family, cell, seed, knobs)
    pools = family.crash_space(cell, seed, budget, knobs, clean)
    select(pools, budget, random.Random(family.seed_key(cell, seed)))
    violations: List[Violation] = []
    fired = 0
    for pool in pools:
        for chosen in pool.chosen:
            kind, point = pool.case(chosen)
            try:
                result = play(family, family.build(cell, seed, knobs), kind, point)
            except Exception as exc:  # a harness failure, not a judged violation
                raise SimulationError(
                    f"{cell} case {kind}:{point} died: {type(exc).__name__}: {exc}"
                ) from exc
            fired += result.crashed
            if result.violation is not None:
                violations.append(
                    violation(cell, kind, point, result.check, result.violation)
                )
    report = family.report(cell, knobs, clean, pools, fired)
    report.violations.extend(violations)
    return report


def run_campaign(
    cells: Sequence,
    *,
    budget: Optional[int] = None,
    seed: int = 7,
    jobs: int = 1,
    progress=None,
    **knobs,
) -> CampaignResult:
    """Run a grid of cells of one family (default budget: the family's).

    *jobs* > 1 fans the cells out over worker processes; the ordered
    merge keeps the result identical to a serial campaign.
    """
    from repro.parallel import engine
    from repro.parallel.tasks import campaign_cell

    if not cells:
        raise ValueError("a campaign needs at least one cell")
    family = family_of(cells[0])
    if budget is None:
        budget = family.budget
    cache: Dict = {}
    descriptors = [
        {"cell": cell, "budget": budget, "seed": seed, **_setup(cell, seed, knobs, cache)[1]}
        for cell in cells
    ]
    reports = engine.run_tasks(
        campaign_cell,
        descriptors,
        jobs=jobs,
        labels=[str(cell) for cell in cells],
        progress=progress,
    )
    return CampaignResult(family.name, budget, seed, {**family.knobs, **knobs}, reports)


# ----------------------------------------------------------------------
# judging helpers shared by the families
# ----------------------------------------------------------------------


@contextmanager
def structural() -> Iterator[None]:
    """Report a :class:`RecoveryError` raised inside as a ``structure``
    violation (a clean finish whose verify failed)."""
    try:
        yield
    except RecoveryError as exc:
        raise InvariantViolation("structure", str(exc)) from exc


def durable_image(subject) -> State:
    """The structure check, then the canonical durable state."""
    try:
        if hasattr(subject, "check_integrity"):
            subject.check_integrity(subject.reader(durable=True))
        return durable_state(subject)
    except RecoveryError as exc:
        raise InvariantViolation("structure", str(exc)) from exc
    except SimulationError as exc:
        # Traversal followed a corrupt pointer into unmapped PM.
        raise InvariantViolation("structure", f"durable traversal failed: {exc}") from exc


def accept(state: State, legal: Sequence[State]) -> None:
    """Pass iff *state* is one of the *legal* images; otherwise classify
    the mismatch against the first one (the committed reference)."""
    if state in legal:
        return
    got, want = dict(state), dict(legal[0])
    missing = sorted(k for k in want if k not in got)
    if missing:
        raise InvariantViolation(
            "completeness",
            f"committed key(s) {missing[:4]} missing from the durable state",
        )
    extra = sorted(k for k in got if k not in want)
    if extra:
        raise InvariantViolation(
            "exactness",
            f"uncommitted/removed key(s) {extra[:4]} present in the durable state",
        )
    wrong = sorted(k for k in want if got.get(k) != want[k])
    if wrong:
        raise InvariantViolation(
            "differential",
            f"key(s) {wrong[:4]} hold values diverging from the FG baseline",
        )
    raise InvariantViolation(
        "differential",
        "durable state diverges from the FG baseline (key multiplicity)",
    )


def oracle_states(committed: Dict, batch) -> List[State]:
    """The acknowledged oracle and, with a group-commit *batch* in
    flight, the oracle plus that whole batch in batch order (its commit
    marker may have become durable just before the crash surfaced)."""
    image = {key: tuple(value) for key, value in committed.items()}
    legal = [tuple(sorted(image.items()))]
    if batch:
        for request in batch:
            for key, value in zip(request.keys, request.values):
                image[key] = tuple(value)
        legal.append(tuple(sorted(image.items())))
    return legal


def plan_fault(fault: Dict) -> FaultModel:
    """The fault model of a reproducer's media-fault coordinates."""
    kind = fault["kind"]
    if kind == "torn-tail":
        return FaultModel(TornAppend(fault["append"], fault["cut"]))
    if kind == "bit-flip":
        return FaultModel(BitFlip(fault["append"], fault["word"], fault["bit"]))
    if kind == "drop-drains":
        return FaultModel(DropDrains(fault["count"]))
    raise SimulationError(f"unknown fault kind {kind!r}")


def judge_media(pm, mode, fault: Dict, salvage: Callable[[], Tuple[Any, Any]], *, node: str = ""):
    """The media-fault double judgement of a crashed, damaged image.

    1. **detection** — damage the injection left on media (the damage
       ledger is the ground truth; zero- and full-cut tears leave none)
       must be visible to the tolerant byte parse: a fired flip that
       parses clean is a CRC escape, a partial tear a framing bug;
    2. **strict** — on a snapshot, strict recovery must raise a typed
       error *iff* the log is damaged;
    3. **salvage** — *salvage* runs the real salvage recovery and
       returns ``(its result, the damaged node's RecoveryReport or
       None)``; it must succeed and disclose the damage (``report``).

    Returns the salvage result for the family's state judgement.
    """
    on = f" on {node}" if node else ""
    damaged = not pm.parse_byte_log_tolerant().clean
    if pm.log_damage and not damaged:
        raise InvariantViolation(
            "detection", f"media damage escaped the tolerant parse ({fault})"
        )
    try:
        recover(pm.snapshot(), mode=mode, from_bytes=True, policy="strict")
    except (TornLogError, LogChecksumError) as err:
        if not damaged:
            raise InvariantViolation(
                "strict", f"strict recovery rejected an undamaged log{on}: {err}"
            ) from err
    else:
        if damaged:
            raise InvariantViolation(
                "strict", f"strict recovery silently accepted a damaged log{on}"
            )
    try:
        result, report = salvage()
    except RecoveryError as exc:
        raise InvariantViolation("salvage", f"salvage recovery failed: {exc}") from exc
    if damaged and report is not None and not report.damaged:
        raise InvariantViolation(
            "report", f"salvage recovery{on} did not disclose the media damage"
        )
    return result

"""The media-fault family: torn tails, bit flips, dropped drains.

The crash family (:mod:`repro.fuzz.campaign`) assumes the media is
honest — a crash loses volatile state but every durable word survives
intact.  This family removes that assumption.  Each *fault cell* is a
(workload × scheme × fault-kind) triple, and every case runs the cell's
deterministic op sequence with one planned media fault from
:mod:`repro.faults`:

* ``torn-tail`` — the in-flight log append is cut at a word boundary;
  the sweep is **exhaustive**: every word-boundary cut of every op-phase
  append, including the zero-cut (append lost) and the full-cut
  (no-damage control) coordinates;
* ``bit-flip`` — one seeded-random bit of one op-phase append flips the
  moment the entry reaches media, then the power dies;
* ``drop-drains`` — the machine crashes at a sampled durability event
  and the last N WPQ drains are reverted (a broken ADR energy reserve),
  rewinding the media to an earlier durability boundary.

Every case gets the kernel's media double judgement
(:func:`~repro.fuzz.kernel.judge_media`: detection, a strict probe that
must raise *iff* the media is damaged, salvage recovery that must
disclose it), then the salvaged durable state must be consistent with
the FG baseline — the two-state oracle for in-flight damage, the
committed-prefix family for dropped drains.

The family reuses the crash family's op replay, per-workload ops and FG
baseline; violations serialize to reproducers whose ``fault`` field
carries the exact injection coordinates.
"""

from __future__ import annotations

import random
from dataclasses import dataclass, field
from types import SimpleNamespace
from typing import List, Sequence, Tuple

from repro.common.errors import SimulationError
from repro.faults import FAULT_KINDS, FaultModel
from repro.faults.model import tear_points
from repro.fuzz.campaign import _STRESS, STRESS_CONFIG, SUBJECTS, CrashFamily, require_ops
from repro.fuzz.invariants import InvariantViolation
from repro.fuzz.kernel import (
    Pool,
    Violation,
    durable_image,
    judge_media,
    plan_fault,
    register,
    require_choice,
    require_fault,
    structural,
)
from repro.recovery.engine import recover

#: Scheme grid of the default fault campaign: the full design under both
#: logging disciplines (":redo" resolves via the scheme-name suffix).
DEFAULT_FAULT_SCHEMES: Tuple[str, ...] = ("SLPMT", "SLPMT:redo")

#: Annotation policy used by every fault cell (same as the SLPMT crash
#: cells; the in-place table ignores it).
FAULT_POLICY = "manual"

#: Drop-drain depth sweep: how many trailing durability groups vanish.
DROP_COUNTS: Tuple[int, ...] = (1, 2, 3)


@dataclass(frozen=True)
class FaultCell:
    """One (workload × scheme × fault-kind) campaign cell."""

    workload: str
    scheme: str
    fault_kind: str

    def __str__(self) -> str:
        return f"{self.workload}/{self.scheme}/{self.fault_kind}"


@dataclass
class FaultCellReport:
    """Coverage and outcome for one fault cell."""

    cell: FaultCell
    num_ops: int
    appends: int
    cases_run: int
    exhaustive: bool
    fired: int
    violations: List[Violation] = field(default_factory=list)


def default_fault_cells(
    *,
    subjects: Sequence[str] = SUBJECTS,
    schemes: Sequence[str] = DEFAULT_FAULT_SCHEMES,
    kinds: Sequence[str] = ("torn-tail", "bit-flip", "drop-drains"),
) -> List[FaultCell]:
    return [
        FaultCell(workload, scheme, kind)
        for workload in subjects
        for scheme in schemes
        for kind in kinds
    ]


def _check_prefix(run) -> None:
    """Dropped drains rewind the media to an earlier durability event,
    so recovery must land on *some* committed prefix — at most
    ``committed + 1`` (in-flight marker already durable), possibly far
    earlier (a dropped commit-marker drain un-commits its transaction)."""
    state = durable_image(run.subject)
    top = min(run.committed + 1, len(run.baseline) - 1)
    if not any(state == run.baseline[k] for k in range(top + 1)):
        raise InvariantViolation(
            "prefix",
            "durable state after dropped drains matches no committed prefix",
        )


class FaultFamily(CrashFamily):
    """The crash family's op replay with one media fault per case."""

    name = "faults"
    cell_type = FaultCell
    knobs = dict(num_ops=10, value_bytes=32, config=STRESS_CONFIG, ops=None, baseline=None)
    budget = 24
    title = "SLPMT media-fault injection campaign"
    columns = (
        ("workload", 10, lambda c: c.cell.workload),
        ("scheme", 10, lambda c: c.cell.scheme),
        ("fault", 11, lambda c: c.cell.fault_kind),
        ("ops", 4, lambda c: c.num_ops),
        ("appends", 8, lambda c: c.appends),
        ("cases", 6, lambda c: c.cases_run),
        ("fired", 6, lambda c: c.fired),
        ("coverage", 10, lambda c: "all-cuts" if c.exhaustive else "sampled"),
        ("violations", 10, lambda c: len(c.violations)),
    )

    def policy(self, cell):
        return FAULT_POLICY

    def seed_key(self, cell, seed):
        return f"drop:{seed}:{cell.workload}:{cell.scheme}"

    def gauge(self, run):
        return run.machine.pm.log_appends, run.machine.wpq.total_inserts

    def measure(self, run, start):
        """Fault coordinates address the global append clock, so the
        family tears and flips only op-phase appends (index ``append0``
        on) — setup crashes are the crash family's territory."""
        append0, events0 = start
        pm = run.machine.pm
        return SimpleNamespace(
            append0=append0,
            lengths=[pm.extent(i).nwords for i in range(append0, pm.log_appends)],
            events=run.machine.wpq.total_inserts - events0,
        )

    def site(self, kind, fault):
        """A dropped-drain case crashes at its durability event, a torn
        or flipped append at the append it damages."""
        if fault["kind"] == "drop-drains":
            return "persist", fault["crash_point"]
        return "append", fault["append"]

    def probe(self, run, site, probe):
        if site == "persist":
            run.machine.pm.arm_journal()
            run.machine.probe_persists(probe)
        else:
            run.machine.pm.fault_model = FaultModel(probe=probe)

    def load_image(self, shell, run, kind, fault, entry):
        super().load_image(shell, run, kind, fault, entry)
        shell.model = plan_fault(fault)
        if entry is not None:
            shell.model.damage(shell.machine.pm, entry)

    def arm(self, run, kind, fault):
        run.model = plan_fault(fault)
        run.machine.pm.fault_model = run.model
        if fault["kind"] == "drop-drains":
            run.machine.pm.arm_journal()
            run.machine.schedule_crash_after_persists(fault["crash_point"])

    def judge(self, run, kind, fault):
        machine = run.machine
        machine.checkpoint = None
        machine.crash()
        machine.pm.fault_model = None
        run.model.apply_post_crash(machine.pm)

        def salvage():
            report = recover(
                machine.pm, mode=machine.scheme.logging_mode,
                hooks=[run.subject], policy="salvage",
            )
            return report, report

        judge_media(machine.pm, machine.scheme.logging_mode, fault, salvage)
        if fault["kind"] == "drop-drains":
            _check_prefix(run)
        else:
            run.check_two_state()

    def settle(self, run):
        run.machine.cancel_scheduled_crash()
        run.machine.pm.fault_model = None
        with structural():
            run.subject.verify()

    def crash_space(self, cell, seed, budget, knobs, clean):
        """Torn tails enumerate every word-boundary cut of every op-phase
        append; bit flips and dropped drains draw *budget* coordinates
        from the campaign seed."""
        if cell.fault_kind == "torn-tail":
            faults = [
                {"kind": "torn-tail", "append": clean.append0 + i, "cut": cut}
                for i, cut in tear_points(clean.lengths)
            ]
        elif cell.fault_kind == "bit-flip":
            model = FaultModel(seed=seed)
            seen = set()
            faults = []
            total_bits = sum(clean.lengths) * 64
            for case in range(max(budget * 3, budget)):
                if len(faults) >= min(budget, total_bits):
                    break
                flip = model.choose_flip(clean.lengths, case=f"{cell}:{case}")
                if flip is None:
                    break
                coord = (flip.append_index, flip.word, flip.bit)
                if coord in seen:
                    continue
                seen.add(coord)
                faults.append({
                    "kind": "bit-flip",
                    "append": clean.append0 + flip.append_index,
                    "word": flip.word,
                    "bit": flip.bit,
                })
        elif cell.fault_kind == "drop-drains":
            rng = random.Random(self.seed_key(cell, seed))
            points = list(range(clean.events))
            rng.shuffle(points)
            faults = [
                {"kind": "drop-drains", "crash_point": point, "count": count}
                for point in points[: max(1, budget // len(DROP_COUNTS))]
                for count in DROP_COUNTS
            ][:budget]
        else:
            raise SimulationError(f"unknown fault kind {cell.fault_kind!r}")
        return [Pool("fault", faults)]

    def report(self, cell, knobs, clean, pools, fired):
        (faults,) = pools
        return FaultCellReport(
            cell=cell,
            num_ops=len(knobs["ops"]),
            appends=len(clean.lengths),
            cases_run=len(faults.chosen),
            exhaustive=cell.fault_kind == "torn-tail",
            fired=fired,
        )

    def describe(self, result):
        knobs = result.knobs
        return [
            f"budget={result.budget} sampled cases per cell, seed={result.seed}, "
            f"ops/cell={knobs['num_ops']}, value_bytes={knobs['value_bytes']}, "
            + _STRESS,
            "torn-tail cells enumerate every word-boundary cut exhaustively",
        ]

    def coverage(self, cells):
        exhaustive = sum(1 for c in cells if c.exhaustive)
        return f"{exhaustive} with exhaustive torn-tail coverage"

    def thaw(self, rep):
        require_choice("workload", rep.workload, SUBJECTS)
        require_ops(rep.ops, rep.workload)
        require_choice("crash_kind", rep.crash_kind, ("fault",))
        require_fault(rep.fault, FAULT_KINDS, {})
        cell = FaultCell(rep.workload, rep.scheme, rep.fault["kind"])
        return cell, 0, dict(ops=rep.ops, value_bytes=rep.value_bytes)


FAULTS = register(FaultFamily())

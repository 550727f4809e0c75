"""Crash-injection harness used by tests and property-based checks.

Runs a program on a machine, injecting a power failure either at an
instruction boundary or at the N-th durability event (which lands inside
a commit sequence), then performs recovery and hands back the durable
state for invariant checking.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Callable, List, Optional

from repro.common.errors import PowerFailure
from repro.core.machine import Machine
from repro.core.ordering import LoggingMode
from repro.isa.program import Program
from repro.recovery.engine import RecoveryHook, RecoveryReport, recover


@dataclass
class CrashOutcome:
    """Result of one crash-inject-and-recover experiment."""

    crashed: bool
    report: Optional[RecoveryReport]
    machine: Machine

    @property
    def pm(self):  # noqa: ANN201 - convenience accessor
        return self.machine.pm


def run_with_crash(
    machine: Machine,
    program: Program,
    *,
    crash_after_instructions: Optional[int] = None,
    crash_after_persists: Optional[int] = None,
    hooks: "List[RecoveryHook] | None" = None,
) -> CrashOutcome:
    """Run *program* with the requested crash point, then recover.

    If both crash knobs are None the program runs to completion and no
    recovery is performed (``crashed=False``).
    """
    if crash_after_persists is not None:
        machine.schedule_crash_after_persists(crash_after_persists)
    finished = machine.run(
        program, crash_after_instructions=crash_after_instructions
    )
    if finished:
        machine.cancel_scheduled_crash()
        return CrashOutcome(crashed=False, report=None, machine=machine)
    report = recover(
        machine.pm, mode=machine.scheme.logging_mode, hooks=hooks
    )
    return CrashOutcome(crashed=True, report=report, machine=machine)


@dataclass
class DryRunStats:
    """What a clean (crash-free) execution makes sweepable.

    ``durability_events`` bounds the ``crash_after_persists`` sweep and
    ``instructions`` bounds the instruction-boundary sweep; the machine
    is kept so callers can read further statistics off it.
    """

    machine: Machine
    durability_events: int
    instructions: int


def dry_run(machine_factory, body: "Callable[[Machine], None]") -> DryRunStats:
    """Run *body* to completion on a fresh machine, with no crash
    scheduled, and report the crash-point totals.

    :func:`count_durability_points` and the targeted crash tests
    enumerate through it, for Program runs and eager PTx workloads
    alike.  The fuzz campaigns measure their own clean runs
    (:func:`repro.fuzz.kernel.clean_run`) off the same two counters:
    WPQ inserts and instructions.
    """
    machine: Machine = machine_factory()
    body(machine)
    return DryRunStats(
        machine=machine,
        durability_events=machine.wpq.total_inserts,
        instructions=machine.stats.instructions,
    )


def count_durability_points(machine_factory, program: Program) -> int:
    """Run *program* on a fresh machine and count its durability events.

    Useful for sweeping ``crash_after_persists`` over every possible
    mid-commit crash point: build the machine with *machine_factory*,
    run cleanly, and read the WPQ insert count.
    """
    return dry_run(machine_factory, lambda m: m.run(program)).durability_events


class InstructionLimit:
    """Checkpoint callback crashing at the N-th memory instruction.

    The eager-execution counterpart of ``Machine.run(program,
    crash_after_instructions=N)``: PTx-driven workloads never go through
    :meth:`Machine.run`, so instruction-boundary crash injection hooks
    the per-instruction ``machine.checkpoint`` callback instead.
    Install after setup to count only the instructions under test.

    Given a recording pass's capture *probe* instead of a limit, it calls
    ``probe.hit()`` at each of the probe's instruction indices (which
    returns the next one, or None) and never crashes.
    """

    def __init__(self, limit: Optional[int] = None, *, probe=None) -> None:
        self.probe = probe
        self.limit = probe.at if probe is not None else limit
        self.seen = 0

    def __call__(self) -> None:
        if self.limit is not None and self.seen >= self.limit:
            if self.probe is None:
                raise PowerFailure("instruction-boundary crash")
            self.limit = self.probe.hit()
        self.seen += 1

"""Regression: crash consistency with a saturated write-pending queue.

Shrinking the WPQ to a single cache line
(:meth:`SystemConfig.with_wpq_bytes`) makes every commit sequence fill
and drain the queue repeatedly, stalling the core
(``wpq.total_stall_cycles``).  A power failure counts only entries
already accepted by the WPQ as durable (the ADR contract), so crashing
at every durability event under maximal queue pressure checks that
commit-sequence ordering does not silently rely on queue capacity.
"""

import pytest

from repro.fuzz.campaign import (
    POLICIES,
    STRESS_CONFIG,
    FuzzCell,
    apply_op,
    generate_ops,
)
from repro.fuzz.invariants import make_subject
from repro.fuzz.kernel import run_cell
from repro.core.machine import Machine
from repro.core.schemes import scheme_by_name
from repro.recovery.crashsim import dry_run
from repro.runtime.ptx import PTx

#: One-line WPQ: every second persist stalls until the PM write drains.
CONFIG = STRESS_CONFIG.with_wpq_bytes(64)

SEED = 11
NUM_OPS = 10

CELLS = (
    FuzzCell("hashtable", "SLPMT", "manual"),
    FuzzCell("hashtable", "FG", "none"),
)

_IDS = [str(cell) for cell in CELLS]


def _dry(cell, ops):
    holder = {}

    def factory():
        machine = Machine(scheme_by_name(cell.scheme), CONFIG)
        rt = PTx(machine, policy=POLICIES[cell.policy])
        holder["subject"] = make_subject(cell.workload, rt)
        return machine

    def body(machine):
        for op in ops:
            apply_op(holder["subject"], op)

    return dry_run(factory, body)


@pytest.mark.fuzz
@pytest.mark.parametrize("cell", CELLS, ids=_IDS)
def test_wpq_pressure_corner_is_exercised(cell):
    """Commits under the one-line WPQ really do stall on a full queue."""
    ops = generate_ops(cell.workload, NUM_OPS, SEED)
    stats = _dry(cell, ops)
    assert stats.machine.config.pm.wpq_bytes == 64
    assert stats.machine.wpq.total_stall_cycles > 0


@pytest.mark.fuzz
@pytest.mark.parametrize("cell", CELLS, ids=_IDS)
def test_every_durability_point_recovers_under_wpq_pressure(cell):
    report = run_cell(
        cell,
        budget=10**6,
        seed=SEED,
        num_ops=NUM_OPS,
        config=CONFIG,
        persist_budget=10**6,
        instr_budget=0,
    )
    assert report.exhaustive
    assert report.violations == [], "\n".join(str(v) for v in report.violations)

"""Regression: crash consistency across transaction-ID wraparound.

With a two-ID pool (:meth:`SystemConfig.with_num_tx_ids`), the circular
allocator wraps after every other transaction.  The in-place table's
``checkpoint`` runs the Section III-C4 empty-transaction idiom, so an
update (whose lines stay lazily deferred) followed by a checkpoint
forces the allocator onto a still-active ID: the hardware must reclaim
it and persist the deferred lines first (``stats.txid_reclaims``).
Crashing anywhere inside that reclaim-then-commit window must still
recover to a legal state.
"""

import pytest

from repro.fuzz.campaign import STRESS_CONFIG, FuzzCell, apply_op
from repro.fuzz.invariants import make_subject
from repro.fuzz.kernel import run_cell
from repro.core.machine import Machine
from repro.core.schemes import scheme_by_name
from repro.fuzz.campaign import POLICIES
from repro.recovery.crashsim import dry_run
from repro.runtime.ptx import PTx

#: Two transaction IDs: the smallest legal pool, wraps fastest.
CONFIG = STRESS_CONFIG.with_num_tx_ids(2)

#: Each update leaves lazily-deferred lines behind; each checkpoint
#: cycles the whole (two-ID) circle and must reclaim the update's ID.
OPS = [
    ["update", 0, 11],
    ["checkpoint", 0, 0],
    ["update", 8, 22],
    ["checkpoint", 0, 0],
    ["update", 16, 33],
    ["checkpoint", 0, 0],
]

CELL = FuzzCell("inplace", "SLPMT", "manual")


def _dry():
    holder = {}

    def factory():
        machine = Machine(scheme_by_name(CELL.scheme), CONFIG)
        rt = PTx(machine, policy=POLICIES[CELL.policy])
        holder["subject"] = make_subject(CELL.workload, rt)
        return machine

    def body(machine):
        for op in OPS:
            apply_op(holder["subject"], op)

    return dry_run(factory, body)


@pytest.mark.fuzz
def test_wraparound_corner_is_exercised():
    """The op sequence really does wrap and reclaim the two-ID pool —
    otherwise the sweep below would not be testing the corner at all."""
    stats = _dry()
    assert stats.machine.config.num_tx_ids == 2
    assert stats.machine.stats.txid_reclaims >= 2
    assert stats.machine.stats.lazy_lines_forced >= 2


@pytest.mark.fuzz
def test_every_durability_point_recovers_across_wraparound():
    report = run_cell(
        CELL,
        budget=10**6,
        seed=5,
        ops=OPS,
        config=CONFIG,
        persist_budget=10**6,
        instr_budget=10,
    )
    assert report.exhaustive
    assert report.persist_points_run == report.persist_points_total
    assert report.violations == [], "\n".join(str(v) for v in report.violations)

"""Regression: crash consistency around signature-directed forced persists.

Under lazy persistency a committed transaction's lines may still be
volatile; touching one of them later probes the per-transaction working
set signatures (Section III-C3) and, on a hit, forces the *older*
transaction's deferred lines to PM before the access proceeds
(``stats.signature_hits`` / ``stats.lazy_lines_forced``).  A crash that
lands inside such a forced drain interleaves one transaction's data
persists with another transaction's execution — exactly the window this
sweep covers.
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

SEED = 11
NUM_OPS = 10

#: Both subjects hit the signatures under the tiny stress caches: the
#: in-place table by re-touching lazily updated slots, the red-black
#: tree by rebalancing around nodes a previous transaction deferred.
CELLS = (
    FuzzCell("inplace", "SLPMT", "manual"),
    FuzzCell("rbtree", "SLPMT", "manual"),
)

_IDS = [str(cell) for cell in CELLS]


def _dry(cell, ops):
    holder = {}

    def factory():
        machine = Machine(scheme_by_name(cell.scheme), STRESS_CONFIG)
        rt = PTx(machine, policy=POLICIES[cell.policy])
        holder["subject"] = make_subject(cell.workload, rt)
        return machine

    def body(machine):
        for op in ops:
            apply_op(holder["subject"], op)

    return dry_run(factory, body)


@pytest.mark.fuzz
@pytest.mark.parametrize("cell", CELLS, ids=_IDS)
def test_signature_corner_is_exercised(cell):
    """The swept op sequences really do take signature hits that force
    lazy lines out — the corner under test is reachable."""
    ops = generate_ops(cell.workload, NUM_OPS, SEED)
    stats = _dry(cell, ops)
    assert stats.machine.stats.signature_hits > 0
    assert stats.machine.stats.lazy_lines_forced > 0


@pytest.mark.fuzz
@pytest.mark.parametrize("cell", CELLS, ids=_IDS)
def test_every_durability_point_recovers_across_forced_persists(cell):
    report = run_cell(
        cell,
        budget=10**6,
        seed=SEED,
        num_ops=NUM_OPS,
        persist_budget=10**6,
        instr_budget=0,
    )
    assert report.exhaustive
    assert report.violations == [], "\n".join(str(v) for v in report.violations)

"""Property suite: zero invariant violations at every durability-event
crash point, for every workload under every evaluated scheme.

The fast variant exhaustively enumerates every durability-event crash
point of a small seeded op sequence per (workload × scheme) cell; the
``slow`` variant does the same for ~30 ops (the ISSUE's nightly
configuration).  ATOM and EDE run unannotated — like FG, they see plain
stores only — but exercise line-granularity logging and the uncoalesced
log path respectively.
"""

import pytest

from repro.fuzz.campaign import SUBJECTS, FuzzCell, generate_ops
from repro.fuzz.kernel import run_cell

#: (scheme, policy) pairs from the ISSUE's satellite matrix.
SCHEME_MATRIX = (
    ("FG", "none"),
    ("FG+LG", "manual"),
    ("FG+LZ", "manual"),
    ("SLPMT", "manual"),
    ("ATOM", "none"),
    ("EDE", "none"),
)

CELLS = [
    FuzzCell(workload, scheme, policy)
    for workload in SUBJECTS
    for scheme, policy in SCHEME_MATRIX
]

_IDS = [str(cell) for cell in CELLS]


def _assert_clean(cell: FuzzCell, num_ops: int, *, instr_budget: int) -> None:
    report = run_cell(
        cell,
        budget=10**6,  # never samples: the persist sweep is exhaustive
        seed=11,
        num_ops=num_ops,
        persist_budget=10**6,
        instr_budget=instr_budget,
    )
    assert report.exhaustive, "durability-point sweep must be exhaustive"
    assert report.persist_points_run == report.persist_points_total
    assert report.violations == [], "\n".join(str(v) for v in report.violations)


@pytest.mark.fuzz
@pytest.mark.parametrize("cell", CELLS, ids=_IDS)
def test_exhaustive_durability_points_small(cell):
    _assert_clean(cell, num_ops=4, instr_budget=0)


@pytest.mark.slow
@pytest.mark.fuzz
@pytest.mark.parametrize("cell", CELLS, ids=_IDS)
def test_exhaustive_durability_points_30_ops(cell):
    _assert_clean(cell, num_ops=30, instr_budget=25)


@pytest.mark.fuzz
def test_op_generation_is_deterministic():
    for workload in SUBJECTS:
        assert generate_ops(workload, 12, 3) == generate_ops(workload, 12, 3)
        assert generate_ops(workload, 12, 3) != generate_ops(workload, 12, 4)

"""The campaign kernel: point selection, knobs, and the pinned
batch-8 undo defect every family's case loop would report."""

import random

import pytest

from repro.fuzz.campaign import FuzzCell, ServiceCell
from repro.fuzz.kernel import REST, Pool, family_of, run_case, run_cell, select


class TestSelection:
    def test_pool_that_fits_runs_every_point(self):
        pool = Pool("persist", range(5), take=8)
        select([pool], 8, random.Random(1))
        assert pool.chosen == [0, 1, 2, 3, 4]
        assert pool.full

    def test_sample_is_seeded_and_in_pool_order(self):
        picks = []
        for _ in range(2):
            pool = Pool("persist", range(100), take=10)
            select([pool], 10, random.Random("cell:7"))
            picks.append(pool.chosen)
        assert picks[0] == picks[1] == sorted(picks[0])
        assert len(picks[0]) == 10 and not Pool("x", range(100), chosen=picks[0]).full

    def test_rest_takes_what_the_budget_has_left(self):
        persist = Pool("persist", range(50), take=6)
        instr = Pool("instr", range(50), take=REST)
        select([persist, instr], 8, random.Random(3))
        assert (len(persist.chosen), len(instr.chosen)) == (6, 2)

    def test_strata_cover_every_group_under_a_small_budget(self):
        names = ["a:1", "a:2", "a:3", "b:1", "b:2", "c:1"]
        pool = Pool("step", range(len(names)), take=3,
                    strata=lambda i: names[i].split(":")[0])
        select([pool], 3, random.Random(5))
        assert {names[i][0] for i in pool.chosen} == {"a", "b", "c"}

    def test_kindless_pool_holds_cases(self):
        pool = Pool(None, [("persist:s0", 1)])
        assert pool.case(("persist:s0", 1)) == ("persist:s0", 1)
        assert Pool("switch", []).case(4) == ("switch", 4)


class TestKnobs:
    def test_unknown_knob_is_rejected(self):
        with pytest.raises(TypeError, match="num_clients"):
            run_cell(FuzzCell("hashtable", "SLPMT", "manual"),
                     budget=2, seed=7, num_clients=3)

    def test_cell_type_selects_the_family(self):
        assert family_of(ServiceCell("hashtable", "FG", 1)).name == "service"
        with pytest.raises(TypeError):
            family_of(("hashtable", "FG"))


@pytest.mark.fuzz
@pytest.mark.xfail(
    strict=True,
    reason="known batch-8 undo defect: an L1->L2->L1 round trip clears a "
    "word's log bit in a partly logged group, the word is logged again "
    "with the batch's own earlier write as its old value, and that "
    "duplicate drains from tier 0 after the original merged into a "
    "tier-1 record, leaving it the only durable pre-image at the crash",
)
@pytest.mark.parametrize("scheme, point", [("SLPMT", 14), ("FG", 26)])
def test_batch8_hashtable_undo_defect(scheme, point):
    result = run_case(
        ServiceCell("hashtable", scheme, 8), "persist", point, seed=5
    )
    assert result.violation is None, f"[{result.check}] {result.violation}"

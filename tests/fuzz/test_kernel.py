"""The campaign kernel: point selection, knobs, and the pinned undo
defects (batch-8 hashtable, duration-mode multistruct FG) every
family's case loop would report."""

import random

import pytest

import dataclasses

from repro.common.errors import ReproError, SimulationError
from repro.fuzz.campaign import STRESS_CONFIG, FuzzCell, ServiceCell, generate_ops
from repro.fuzz.kernel import (
    REST,
    CrashImageError,
    Pool,
    family_of,
    run_campaign,
    run_case,
    run_cases,
    run_cell,
    select,
)


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


class TestRecordingPass:
    HAZARD = FuzzCell("hashtable", "SLPMT", "manual-buggy-tombstone")

    def test_stop_ends_the_pass_at_the_first_violation(self):
        ops = generate_ops("hashtable", 10, 7)
        cases = [("persist", point) for point in range(10, 20)]
        results = run_cases(self.HAZARD, cases, seed=7, stop=True, ops=ops)
        assert [r is not None for r in results] == [True] * 4 + [False] * 6
        assert [r.violation is not None for r in results[:4]] == [False] * 3 + [True]

    def test_a_judge_that_dies_names_its_case(self, monkeypatch):
        family = family_of(ServiceCell("hashtable", "SLPMT", 1))

        def broken(*args):
            raise RuntimeError("judge bug")

        monkeypatch.setattr(family, "judge", broken)
        with pytest.raises(SimulationError, match=r"case persist:\d+ died: RuntimeError: judge bug"):
            run_cell(ServiceCell("hashtable", "SLPMT", 1), budget=4, seed=7,
                     num_clients=2, requests_per_client=4)


class TestBatteryBackedCaches:
    """A battery-backed crash drains volatile state into PM, which no
    image captured at the crash site holds: the kernel refuses such a
    config before anything runs."""

    CONFIG = dataclasses.replace(STRESS_CONFIG, battery_backed_cache=True)

    @pytest.fixture(autouse=True)
    def nothing_builds(self, monkeypatch):
        for cell in (FuzzCell("hashtable", "SLPMT", "manual"), ServiceCell("hashtable", "SLPMT", 1)):
            family = family_of(cell)
            monkeypatch.setattr(family, "build", self.unreachable)
            monkeypatch.setattr(family, "share", self.unreachable)

    @staticmethod
    def unreachable(*args, **kwargs):
        raise AssertionError("a rejected config must not run")

    @pytest.mark.parametrize("run", [
        lambda cell, config: run_cell(cell, budget=4, seed=7, config=config),
        lambda cell, config: run_case(cell, "persist", 3, seed=7, config=config),
        lambda cell, config: run_campaign([cell], budget=4, seed=7, config=config),
    ], ids=["run_cell", "run_case", "run_campaign"])
    @pytest.mark.parametrize("cell", [
        FuzzCell("hashtable", "SLPMT", "manual"), ServiceCell("hashtable", "SLPMT", 1),
    ], ids=str)
    def test_rejected_before_any_run(self, run, cell):
        with pytest.raises(CrashImageError, match="battery_backed_cache"):
            run(cell, self.CONFIG)
        assert issubclass(CrashImageError, ReproError)


# Crash points where an undo duplicate would show: an L1->L2->L1 round
# trip clears a word's log bit in a partly logged group, and the word is
# logged again with the batch's own earlier write as its old value.  The
# log buffer must drop that duplicate while any tier still holds the
# record with the true pre-image (tests/core/test_machine.py pins the
# mechanism).


@pytest.mark.fuzz
@pytest.mark.parametrize("scheme, point", [("SLPMT", 14), ("FG", 26)])
def test_batch8_hashtable_undo_defect(scheme, point):
    result = run_case(
        ServiceCell("hashtable", scheme, 8), "persist", point, seed=5
    )
    assert result.violation is None, f"[{result.check}] {result.violation}"


@pytest.mark.fuzz
def test_duration_multistruct_fg_undo_defect():
    # The in-flight batch logs the counter word twice: were both records
    # durable, reverse replay would apply the newer pre-image last and
    # recover the counter one past the queue length.
    result = run_case(
        ServiceCell("multistruct", "FG", 8, locking=True), "persist", 2505,
        seed=7, num_clients=3, duration_cycles=200000,
    )
    assert result.violation is None, f"[{result.check}] {result.violation}"

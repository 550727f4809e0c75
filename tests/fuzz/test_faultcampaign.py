"""Media-fault campaign: exhaustive torn-tail sweeps, flip detection,
dropped drains, and the fault-carrying reproducer."""

import json

import pytest

from repro.common.errors import ArtifactError
from repro.fuzz.campaign import generate_ops
from repro.fuzz.faultcampaign import (
    DEFAULT_FAULT_SCHEMES,
    FAULT_POLICY,
    FaultCell,
    default_fault_cells,
)
from repro.fuzz.kernel import Violation, clean_run, run_campaign, run_case, run_cell
from repro.fuzz.minimize import Reproducer, replay
from repro.fuzz.report import format_report

OPS = 4
SEED = 7


def small_cell_report(workload, scheme, kind, *, budget=6):
    cell = FaultCell(workload, scheme, kind)
    return run_cell(cell, budget=budget, seed=SEED, num_ops=OPS)


TORN = FaultCell("inplace", "SLPMT", "torn-tail")


def wire_layout(ops):
    """The clean run's op-phase appends: first global index, wire words."""
    clean = clean_run(TORN, seed=SEED, ops=ops)
    return clean.append0, clean.lengths


class TestTornTailSweep:
    @pytest.mark.parametrize("scheme", DEFAULT_FAULT_SCHEMES)
    def test_exhaustive_sweep_has_zero_violations(self, scheme):
        # The acceptance criterion: every word-boundary cut of every
        # op-phase append, under both logging disciplines, recovers to a
        # consistent committed state with the damage disclosed.  The
        # ":redo" half of this sweep is what exposed the mixed-line
        # log-free data loss the fill records now close.
        report = small_cell_report("hashtable", scheme, "torn-tail")
        assert report.exhaustive
        assert report.violations == []
        assert report.fired == report.cases_run > 0

    def test_sweep_covers_every_cut(self):
        ops = generate_ops("inplace", OPS, SEED)
        _, lengths = wire_layout(ops)
        report = small_cell_report("inplace", "SLPMT", "torn-tail")
        assert report.cases_run == sum(n + 1 for n in lengths)
        assert report.appends == len(lengths)

    def test_full_cut_control_case_is_clean(self):
        # A cut equal to the entry's wire length means the append
        # completed; recovery must treat the log as undamaged.
        ops = generate_ops("inplace", OPS, SEED)
        append0, lengths = wire_layout(ops)
        fault = {"kind": "torn-tail", "append": append0, "cut": lengths[0]}
        result = run_case(TORN, "fault", fault, seed=SEED, ops=ops)
        assert result.crashed
        assert result.violation is None

    def test_plan_past_run_end_never_fires(self):
        ops = generate_ops("inplace", OPS, SEED)
        fault = {"kind": "torn-tail", "append": 10_000, "cut": 0}
        result = run_case(TORN, "fault", fault, seed=SEED, ops=ops)
        assert not result.crashed
        assert result.violation is None


class TestBitFlips:
    def test_every_sampled_flip_is_detected_and_recovered(self):
        report = small_cell_report("inplace", "SLPMT", "bit-flip")
        assert not report.exhaustive
        assert report.fired == report.cases_run > 0
        assert report.violations == []

    def test_flip_coordinates_are_deterministic(self):
        a = small_cell_report("inplace", "SLPMT", "bit-flip", budget=4)
        b = small_cell_report("inplace", "SLPMT", "bit-flip", budget=4)
        assert a.cases_run == b.cases_run
        assert a.fired == b.fired


class TestDropDrains:
    def test_dropped_drains_land_on_a_committed_prefix(self):
        report = small_cell_report("inplace", "SLPMT", "drop-drains")
        assert report.cases_run > 0
        assert report.violations == []


class TestCampaign:
    def test_tiny_campaign_is_clean_and_reported(self):
        cells = [
            FaultCell("inplace", "SLPMT", "torn-tail"),
            FaultCell("inplace", "SLPMT", "bit-flip"),
        ]
        result = run_campaign(
            budget=4, seed=SEED, cells=cells, num_ops=3
        )
        assert result.total_cases > 0
        assert result.violations == []
        text = format_report(result)
        assert "all-cuts" in text and "sampled" in text
        assert "violations: 0" in text
        # Stable output: same inputs, byte-identical report.
        rerun = run_campaign(budget=4, seed=SEED, cells=cells, num_ops=3)
        assert format_report(rerun) == text

    def test_default_cells_grid(self):
        cells = default_fault_cells(
            subjects=("inplace", "hashtable"), kinds=("torn-tail",)
        )
        assert len(cells) == 2 * len(DEFAULT_FAULT_SCHEMES)
        assert all(c.fault_kind == "torn-tail" for c in cells)


class TestFaultReproducer:
    def fault_rep(self, fault, **over):
        fields = dict(
            workload="inplace", scheme="SLPMT", policy=FAULT_POLICY,
            value_bytes=32, ops=[list(op) for op in generate_ops(
                "inplace", OPS, SEED)],
            crash_kind="fault", crash_point=0,
            violation="", check="", fault=fault,
        )
        fields.update(over)
        return Reproducer(**fields)

    def test_json_round_trip_keeps_fault_coordinates(self):
        rep = self.fault_rep({"kind": "bit-flip", "append": 3, "word": 1,
                              "bit": 42})
        again = Reproducer.from_json(rep.to_json())
        assert again == rep
        assert again.fault["bit"] == 42

    def test_files_without_fault_key_are_rejected(self):
        rep = self.fault_rep(None)
        data = json.loads(rep.to_json())
        del data["fault"]
        with pytest.raises(ArtifactError, match="fault"):
            Reproducer.from_json(json.dumps(data))

    def test_replay_dispatches_to_fault_case(self):
        ops = generate_ops("inplace", OPS, SEED)
        append0, lengths = wire_layout(ops)
        rep = self.fault_rep(
            {"kind": "torn-tail", "append": append0, "cut": 1},
            ops=[list(op) for op in ops],
        )
        result = replay(rep)
        assert result.crashed
        assert result.violation is None

    def test_from_fault_violation_freezes_coordinates(self):
        violation = Violation(
            cell=FaultCell("inplace", "SLPMT", "drop-drains"),
            crash_kind="fault",
            crash_point=9,
            fault={"kind": "drop-drains", "crash_point": 9, "count": 2},
            check="prefix",
            message="durable state matches no committed prefix",
        )
        ops = generate_ops("inplace", 3, SEED)
        rep = Reproducer.from_violation(violation, seed=SEED, ops=ops)
        assert rep.crash_kind == "fault"
        assert rep.crash_point == 9
        assert rep.policy == FAULT_POLICY
        assert rep.fault["count"] == 2
        assert rep.check == "prefix"

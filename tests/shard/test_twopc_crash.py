"""Crash/recovery of the cross-shard protocol.

Step-indexed coordinator crashes, participant persist-point crashes,
fault-injected decision records, idempotent resolution, and the
campaign front door (determinism, poison propagation with shard/step
labels).
"""

import pytest

from repro.common.errors import PowerFailure
from repro.fuzz.campaign import STRESS_CONFIG
from repro.fuzz.invariants import durable_state
from repro.fuzz.kernel import clean_run, run_campaign, run_case, run_cell
from repro.fuzz.twopc import TWOPC, TwoPCCell, _build_twopc, step_family
from repro.parallel.engine import WorkerCrash
from repro.parallel.tasks import POISON_ENV

CELL = TwoPCCell("hashtable", "SLPMT", 2, "crash")
TORN = TwoPCCell("hashtable", "SLPMT", 2, "torn-decision")

CASE_KW = dict(num_clients=2, requests_per_client=8, value_bytes=32)


def build():
    return _build_twopc(CELL, seed=7, config=STRESS_CONFIG, **CASE_KW)


def step_names():
    dep = build()
    dep.serve()
    return list(dep.coordinator.steps.names)


class TestStepCrashes:
    def test_protocol_exposes_every_family(self):
        families = {step_family(n) for n in step_names()}
        assert {"pre-prepare", "prepared", "pre-decision",
                "post-decision", "applied"} <= families

    @pytest.mark.parametrize("family", [
        "pre-prepare", "prepared", "pre-decision", "post-decision",
        "applied",
    ])
    def test_crash_at_first_step_of_each_family_recovers(self, family):
        names = step_names()
        point = next(
            i for i, n in enumerate(names) if step_family(n) == family
        )
        result = run_case(CELL, "step", point, seed=7, **CASE_KW)
        assert result.crashed
        assert result.violation is None, (family, result.violation)

    def test_unreached_step_point_finishes_clean(self):
        result = run_case(CELL, "step", 10_000, seed=7, **CASE_KW)
        assert not result.crashed
        assert result.violation is None


class TestPersistCrashes:
    @pytest.mark.parametrize("node", ["coord", "s0", "s1"])
    def test_early_persist_crash_recovers(self, node):
        result = run_case(CELL, f"persist:{node}", 3, seed=7, **CASE_KW)
        assert result.crashed
        assert result.violation is None, (node, result.violation)


class TestTornDecisionFaults:
    def test_torn_coordinator_decision_is_detected_and_salvaged(self):
        fault = {"node": "coord", "kind": "torn-tail", "append": 0, "cut": 2}
        result = run_case(TORN, "fault", fault, seed=7, **CASE_KW)
        assert result.crashed
        assert result.violation is None, result.violation

    def test_bit_flip_in_participant_decision_log(self):
        # The participant's append clock runs from setup onward; find
        # the first *protocol* append on s0 from a dry run, exactly as
        # the cell driver enumerates its fault coordinates.
        from repro.mem.logregion import TWOPC_KINDS

        dep = build()
        appends0 = {
            label: m.pm.log_appends for label, m in dep.all_machines()
        }
        dep.serve()
        machines = dict(dep.all_machines())
        pm = machines["s0"].pm
        append = next(
            i for i in range(appends0["s0"], pm.log_appends)
            if pm.log_extents[i].entry.kind in TWOPC_KINDS
        )
        fault = {
            "node": "s0", "kind": "bit-flip", "append": append, "word": 0,
            "bit": 13,
        }
        result = run_case(TORN, "fault", fault, seed=7, **CASE_KW)
        assert result.crashed
        assert result.violation is None, result.violation


class TestIdempotentResolution:
    def test_double_resolution_is_a_noop(self):
        names = step_names()
        point = next(
            i for i, n in enumerate(names)
            if step_family(n) == "post-decision"
        )
        dep = build()
        dep.coordinator.steps.crash_at = point
        with pytest.raises(PowerFailure):
            dep.serve()
        dep.crash()
        first = recover_twopc(dep)
        assert "commit" in first.fates.values()
        once = [durable_state(node.subject) for node in dep.nodes]
        second = recover_twopc(dep)
        # The spent logs hold no protocol records: nothing re-resolves,
        # nothing re-applies, the durable images do not move.
        assert second.fates == {}
        assert second.reapplied == {}
        assert [durable_state(n.subject) for n in dep.nodes] == once


def recover_twopc(dep):
    from repro.shard.recovery import recover_deployment

    return recover_deployment(dep, policy="strict")


def step_pool():
    """The step names and the step pool of the crash cell's crash space."""
    clean = clean_run(CELL, seed=7, **CASE_KW)
    steps, _persist = TWOPC.crash_space(CELL, 7, 0, {}, clean)
    return clean.steps, steps


class TestStratifiedSampling:
    def test_small_budget_covers_every_family(self):
        import random

        names, pool = step_pool()
        families = {step_family(n) for n in names}
        picked = pool.choose(len(families), random.Random(1))
        assert {step_family(names[i]) for i in picked} == families

    def test_large_budget_is_exhaustive(self):
        import random

        names, pool = step_pool()
        picked = pool.choose(10_000, random.Random(1))
        assert picked == list(range(len(names)))


class TestCampaign:
    def test_cell_sweep_finds_no_violations(self):
        report = run_cell(CELL, budget=8, seed=7, **CASE_KW)
        assert report.cases_run == 8
        assert report.violations == []
        assert report.step_points_total > 0
        assert report.xshard_commits > 0

    def test_torn_cell_attacks_decision_records(self):
        report = run_cell(TORN, budget=6, seed=7, **CASE_KW)
        assert report.cases_run == 6
        assert report.fault_points_run == 6
        assert report.fault_points_total > 6
        assert report.violations == []


class TestPoisonPropagation:
    """A worker crash must name the 2PC cell (which shard deployment
    and protocol configuration died), serial and parallel alike."""

    @pytest.mark.parametrize("jobs", [1, 2])
    def test_poisoned_cell_surfaces_with_label(self, monkeypatch, jobs):
        monkeypatch.setenv(POISON_ENV, str(CELL))
        with pytest.raises(WorkerCrash) as exc:
            run_campaign(
                budget=2, seed=7, cells=[CELL], jobs=jobs, **CASE_KW
            )
        assert "2pc/hashtable/SLPMT/s2/crash" in str(exc.value)

    def test_cli_exits_2_on_poisoned_cell(self, monkeypatch, capsys, tmp_path):
        from repro.fuzz.cli import fuzz_main

        monkeypatch.setenv(POISON_ENV, str(CELL))
        rc = fuzz_main([
            "--twopc", "--budget", "2", "--shards", "2",
            "--schemes", "SLPMT",
            "--out", str(tmp_path / "twopc.txt"),
        ])
        assert rc == 2
        assert "2pc/hashtable/SLPMT/s2/crash" in capsys.readouterr().err

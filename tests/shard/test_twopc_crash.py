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
from repro.fuzz.twopc import TWOPC, TwoPCCell, _build_twopc
from repro.parallel.engine import WorkerCrash
from repro.parallel.tasks import POISON_ENV
from repro.shard.twopc import (
    PREPARE_ATTEMPTS,
    STEP_FAMILIES,
    StepTracker,
    step_name,
)

CELL = TwoPCCell("hashtable", "SLPMT", 2, "crash")
TORN = TwoPCCell("hashtable", "SLPMT", 2, "torn-decision")

CASE_KW = dict(num_clients=2, requests_per_client=8, value_bytes=32)


def build():
    return _build_twopc(CELL, seed=7, config=STRESS_CONFIG, **CASE_KW)


def step_family(name):
    """The family of a step name (``prepared:g3:s1`` → ``prepared``);
    a family name is its own family."""
    return name.split(":", 1)[0]


def families(steps):
    """The family name of every step byte a tracker recorded."""
    return [STEP_FAMILIES[family] for family in steps]


def step_names():
    dep = build()
    dep.serve()
    return families(dep.coordinator.steps.families)


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

    def test_families_are_the_families_of_the_step_names(self, monkeypatch):
        # Name every step the protocol passes as it passes it; the
        # tracker keeps only each step's family byte.
        names = []
        hit = StepTracker.hit

        def naming(tracker, family, gtx, shard=None):
            names.append(step_name(family, gtx, shard))
            hit(tracker, family, gtx, shard)

        monkeypatch.setattr(StepTracker, "hit", naming)
        dep = build()
        dep.serve()
        assert len(names) == len(dep.coordinator.steps.families) > 0
        assert families(dep.coordinator.steps.families) == [
            step_family(n) for n in names
        ]
        assert names[0] == "pre-prepare:g1"
        assert "prepared:g1:s0" in names

    def test_step_crash_names_its_step(self):
        names = step_names()
        point = names.index("applied")
        dep = build()
        dep.coordinator.steps.crash_at = point
        with pytest.raises(PowerFailure, match=rf"#{point} \(applied:g\d+:s\d\)"):
            dep.serve()


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
            if pm.extent(i).entry.kind in TWOPC_KINDS
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


class TestForgettingChangesNoRecovery:
    """Each node forgets a global transaction's records from its live
    index once no recovery can need them; the bytes keep every record.
    A deployment crashed in phase 2 or inside a late shard commit must
    recover from its live indexes as it recovers from its bytes."""

    CELL3 = TwoPCCell("hashtable", "SLPMT", 3, "crash")
    KW = dict(num_clients=3, requests_per_client=12, value_bytes=32)

    def build(self):
        return _build_twopc(self.CELL3, seed=7, config=STRESS_CONFIG, **self.KW)

    def crashed(self, arm):
        dep = self.build()
        arm(dep)
        with pytest.raises(PowerFailure):
            dep.serve()
        dep.crash()
        return dep

    def recover_both(self, indexed, serialized):
        """Recover *indexed* from its live indexes and its crashed twin
        from its bytes: the same data words and re-applies."""
        for _, machine in serialized.all_machines():
            assert machine.pm._indexed
            machine.pm._indexed = False
        by_index, by_bytes = recover_twopc(indexed), recover_twopc(serialized)
        for a, b in zip(indexed.nodes, serialized.nodes):
            assert _data_words(a.machine.pm) == _data_words(b.machine.pm)
        assert by_index.reapplied == by_bytes.reapplied
        return by_index, by_bytes

    def assert_recover_alike(self, arm):
        indexed, serialized = self.crashed(arm), self.crashed(arm)
        by_index, by_bytes = self.recover_both(indexed, serialized)
        assert by_index.in_doubt == by_bytes.in_doubt
        assert indexed.inflight_gtx == serialized.inflight_gtx
        if indexed.inflight_gtx is not None:
            gtx = indexed.inflight_gtx[0]
            assert by_index.fates.get(gtx) == by_bytes.fates.get(gtx)
        # The index lists only unsealed global transactions; the byte
        # parse also lists every sealed one.
        assert by_index.fates.items() <= by_bytes.fates.items()
        return indexed

    def test_phase_two_step_crashes_of_late_gtxs(self):
        clean = self.build()
        clean.serve()
        names = families(clean.coordinator.steps.families)
        late = [
            index
            for index in range(len(names) // 2, len(names))
            if step_family(names[index]) in ("post-decision", "applied")
        ]
        assert len(late) >= 6
        for point in late[-6:]:
            def arm(dep, point=point):
                dep.coordinator.steps.crash_at = point

            self.assert_recover_alike(arm)

    @pytest.mark.parametrize("target", ["local-batch", "phase-2-apply"])
    def test_persist_crash_in_a_late_shard_commit(self, target):
        # Crash at the first durability event of the last local batch
        # commit, or of the last participant apply, of a clean run.
        clean = self.build()
        calls = []

        def spying(node, method):
            start = node.machine.wpq.total_inserts

            def spy(*args):
                before = node.machine.wpq.total_inserts
                method(*args)
                calls.append((node.shard_id, before - start))

            return spy

        for node in clean.nodes:
            if target == "local-batch":
                node.tm.commit_batch = spying(node, node.tm.commit_batch)
            else:
                node.apply_staged = spying(node, node.apply_staged)
        clean.serve()
        assert clean.coordinator.committed_gtxs
        shard, point = calls[-1]

        def arm(dep):
            dep.nodes[shard].machine.schedule_crash_after_persists(point)

        dep = self.assert_recover_alike(arm)
        if target == "local-batch":
            assert dep.nodes[shard].inflight
        else:
            assert shard in dep.inflight_gtx[1]

    def test_forgotten_abort_reads_as_abort_from_the_bytes(self):
        # s2 leaves the first global transaction that spans it
        # unanswered, after s0 or s1 prepared it: the coordinator aborts
        # and tells that participant, and every node forgets the abort.
        indexed, serialized = self.build(), self.build()
        for dep in (indexed, serialized):
            dep.nodes[2].fail_prepares = PREPARE_ATTEMPTS
            dep.serve()
            dep.crash()
        by_index, by_bytes = self.recover_both(indexed, serialized)
        assert indexed.coordinator.aborted_gtxs == 1
        assert by_index.fates == {} and by_index.reapplied == {}
        aborted = [gtx for gtx, fate in by_bytes.fates.items() if fate == "abort"]
        assert len(aborted) == 1
        # The told participant persisted its own decide-abort: nothing
        # was undecided at the crash.
        assert by_bytes.in_doubt == [] == by_index.in_doubt

    def test_a_participant_crashed_before_its_own_abort_is_in_doubt(self):
        # As above, but power fails after the coordinator's decide-abort
        # and before the told participant persists its own.
        def arm(dep):
            def crash(gtx, shard_ids):
                raise PowerFailure("crash before the participant's abort")

            dep.nodes[2].fail_prepares = PREPARE_ATTEMPTS
            for node in dep.nodes:
                node.abort = crash

        indexed, serialized = self.crashed(arm), self.crashed(arm)
        by_index, by_bytes = self.recover_both(indexed, serialized)
        gtx = indexed.inflight_gtx[0]
        assert by_bytes.in_doubt == [gtx] == by_index.in_doubt
        assert by_bytes.fates[gtx] == "abort" == by_index.fates[gtx]


def _data_words(pm):
    """The heap's non-zero words (the log region has its own store)."""
    return {addr: value for addr, value in pm._words.items() if value}


def step_pool():
    """The step families and the step pool of the crash cell's crash
    space."""
    clean = clean_run(CELL, seed=7, **CASE_KW)
    steps, _persist = TWOPC.crash_space(CELL, 7, 0, {}, clean)
    return families(clean.steps), steps


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

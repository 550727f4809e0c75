"""2PC campaign plumbing: reproducers, reports, shrink dispatch."""

import json

import pytest

from repro.fuzz.campaign import ServiceCell
from repro.fuzz.kernel import Violation, run_campaign
from repro.fuzz.minimize import Reproducer, replay
from repro.fuzz.report import format_report
from repro.fuzz.twopc import DEFAULT_TWOPC_CELLS, TWOPC_FAULTS, TwoPCCell

SMALL = dict(num_clients=2, requests_per_client=8, value_bytes=32)


def twopc_violation(fault=None):
    return Violation(
        cell=TwoPCCell(
            "hashtable", "SLPMT", 2,
            "torn-decision" if fault else "crash",
        ),
        crash_kind="fault" if fault else "step",
        crash_point=5,
        check="atomicity",
        message="synthetic",
        fault=fault,
    )


class TestDefaultGrid:
    def test_covers_both_fault_kinds_and_shard_counts(self):
        assert len(DEFAULT_TWOPC_CELLS) >= 8
        faults = {c.fault for c in DEFAULT_TWOPC_CELLS}
        assert faults == set(TWOPC_FAULTS)
        assert {c.shards for c in DEFAULT_TWOPC_CELLS} == {2, 3}
        # >= 1 torn-decision cell: the acceptance floor.
        assert sum(
            1 for c in DEFAULT_TWOPC_CELLS if c.fault == "torn-decision"
        ) >= 1

    def test_default_budget_meets_case_floor(self):
        # 8 cells x budget 70 = 560 >= the 500-case acceptance floor.
        assert len(DEFAULT_TWOPC_CELLS) * 70 >= 500


class TestTwoPCReproducer:
    def test_json_round_trip(self):
        rep = Reproducer.from_violation(twopc_violation(), seed=7, **SMALL)
        back = Reproducer.from_json(rep.to_json())
        assert back == rep
        assert back.twopc["shards"] == 2
        assert back.ops == []

    def test_fault_coordinates_survive(self):
        fault = {"node": "coord", "kind": "torn-tail", "append": 0, "cut": 2}
        rep = Reproducer.from_violation(twopc_violation(fault), seed=7, **SMALL)
        back = Reproducer.from_json(rep.to_json())
        assert back.fault == fault

    def test_replay_reruns_the_exact_case(self):
        rep = Reproducer.from_violation(twopc_violation(), seed=7, **SMALL)
        result = replay(rep)
        assert result.crashed
        # The synthetic "violation" is not real: replay judges clean.
        assert result.violation is None

    def test_files_without_service_or_twopc_keys_are_rejected(self):
        rep = Reproducer.from_violation(twopc_violation(), seed=7, **SMALL)
        data = json.loads(rep.to_json())
        del data["twopc"]
        del data["service"]
        with pytest.raises(ValueError, match="service.*twopc"):
            Reproducer.from_json(json.dumps(data))


class TestServiceReproducer:
    def test_json_round_trip_and_replay(self):
        violation = Violation(
            cell=ServiceCell("hashtable", "SLPMT", 4),
            crash_kind="persist",
            crash_point=3,
            check="completeness",
            message="synthetic",
        )
        rep = Reproducer.from_violation(
            violation, num_clients=2, requests_per_client=6,
            value_bytes=32, seed=7,
        )
        back = Reproducer.from_json(rep.to_json())
        assert back == rep
        result = replay(back)
        assert result.violation is None


class TestReportFormat:
    def test_report_is_deterministic_and_complete(self):
        cells = [
            TwoPCCell("hashtable", "SLPMT", 2, "crash"),
            TwoPCCell("hashtable", "SLPMT", 2, "torn-decision"),
        ]
        result = run_campaign(budget=2, seed=7, cells=cells, **SMALL)
        a = format_report(result)
        b = format_report(result)
        assert a == b
        assert "SLPMT cross-shard 2PC crash campaign" in a
        assert "torn-decision" in a
        assert "violations: 0" in a
        assert "attacking durable decision records" in a

"""Exhaustive crash coverage of group-commit batch drains.

A small put-only service is shaped so every write lands in one of two
**full** group-commit batches; the tests then crash at *every*
durability event of the run — the batches' log appends, their data-line
drains, their commit markers — and judge the recovered image against
the acknowledgement oracle.  Every point inside the second batch's
drain crashes with the first batch's acknowledgements outstanding, so
ack => durable is exercised non-vacuously at every stage of a drain.
Fixed seeds make each point a standalone reproducer: the same
``(cell, kind, point, seed)`` replays to the same outcome bit-for-bit.
"""

import pytest

from repro.fuzz.campaign import SERVICE, STRESS_CONFIG, ServiceCell
from repro.fuzz.kernel import play, run_case
from repro.service.admission import AdmissionPolicy
from repro.service.server import ServiceConfig, TransactionService
from repro.service.tm import GroupCommitPolicy

pytestmark = pytest.mark.fuzz

SEED = 5
NUM_CLIENTS = 4
REQUESTS = 4  # 4 clients x 4 puts = 16 writes = two full batches of 8
BATCHES = (NUM_CLIENTS * REQUESTS) // 8


def single_batch_config(scheme):
    return ServiceConfig(
        workload="hashtable",
        scheme=scheme,
        num_clients=NUM_CLIENTS,
        requests_per_client=REQUESTS,
        value_bytes=32,
        num_keys=24,
        theta=0.0,
        mix={"put": 1.0},
        arrival_cycles=200,
        batch=GroupCommitPolicy(batch_size=8, max_wait_cycles=50_000),
        admission=AdmissionPolicy(max_depth=64, mode="block"),
        seed=SEED,
        verify=False,
    )


def count_durability_events(scheme):
    svc = TransactionService(single_batch_config(scheme), config=STRESS_CONFIG)
    events0 = svc.machine.wpq.total_inserts
    svc.serve()
    res = svc.result()
    assert res.batches == BATCHES, (
        "shape regression: traffic must form exactly two full batches"
    )
    assert res.committed_writes == NUM_CLIENTS * REQUESTS
    return svc.machine.wpq.total_inserts - events0


def run_point(scheme, kind, point):
    # The campaign's own service has another traffic shape; play the
    # service family's case on this one so the single-batch shape above
    # is what crashes.
    svc = TransactionService(single_batch_config(scheme), config=STRESS_CONFIG)
    result = play(SERVICE, svc, kind, point)
    return result.crashed, len(svc.rm.committed), result.violation, result.check


@pytest.mark.parametrize("scheme", ["FG", "SLPMT"])
class TestExhaustiveBatchDrain:
    def test_every_persist_point_recovers(self, scheme):
        events = count_durability_events(scheme)
        assert events > 0
        outcomes = []
        for point in range(events):
            crashed, committed, violation, check = run_point(
                scheme, "persist", point
            )
            assert violation is None, (
                f"{scheme} persist point {point}/{events}: "
                f"[{check}] {violation}"
            )
            outcomes.append((crashed, committed))
        # Early points crash before the first tx_end: nothing acked.
        assert outcomes[0] == (True, 0)
        # The sweep must cross the first commit boundary: every point in
        # the second batch's drain crashes with the first batch's eight
        # acknowledgements outstanding, so ack => durable is the binding
        # constraint there, not vacuous absence.
        assert any(
            crashed and committed == 8 for crashed, committed in outcomes
        )
        assert any(
            crashed and committed == 0 for crashed, committed in outcomes
        )

    def test_fixed_seed_points_are_reproducers(self, scheme):
        events = count_durability_events(scheme)
        for point in (0, events // 2, events - 1):
            first = run_point(scheme, "persist", point)
            again = run_point(scheme, "persist", point)
            assert first == again


def test_campaign_case_api_matches_direct_harness():
    """The packaged campaign case (its own traffic shape) stays green on
    a few fixed points — the CLI campaign and these tests must agree on
    the acceptance contract."""
    cell = ServiceCell("hashtable", "SLPMT", 8)
    for point in (0, 25, 90):
        result = run_case(cell, "persist", point, seed=7)
        assert result.violation is None

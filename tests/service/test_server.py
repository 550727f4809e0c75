"""End-to-end transaction-service runs: the WC -> TM -> RM loop."""

import pytest

from repro.mem.logregion import DurableLogEntry
from repro.service.admission import AdmissionPolicy
from repro.service.model import ArrivalStream, Request
from repro.service.rm import ReadConsistencyError
from repro.service.server import ServiceConfig, TransactionService, run_service
from repro.service.tm import GroupCommitPolicy
from tests.reachable import reachable


def config(**overrides):
    base = dict(
        workload="hashtable",
        scheme="SLPMT",
        num_clients=3,
        requests_per_client=8,
        value_bytes=32,
        num_keys=24,
        theta=0.6,
        arrival_cycles=600,
        admission=AdmissionPolicy(max_depth=64, mode="block"),
        seed=11,
    )
    base.update(overrides)
    return ServiceConfig(**base)


class TestConfigValidation:
    def test_bad_mode(self):
        with pytest.raises(ValueError, match="mode"):
            config(mode="batch")

    def test_bad_clients(self):
        with pytest.raises(ValueError, match="num_clients"):
            config(num_clients=0)


class TestOpenLoop:
    def test_all_requests_answered(self):
        res = run_service(config())
        total = 3 * 8
        assert res.requests == total
        assert res.acked == total and res.shed == 0
        assert len(res.responses) == total
        assert res.acked == res.reads + res.committed_writes

    def test_deterministic(self):
        a = run_service(config())
        b = run_service(config())
        assert a.responses == b.responses
        assert a.cycles == b.cycles
        assert a.pm_bytes == b.pm_bytes
        assert a.latency.summary() == b.latency.summary()

    def test_seed_changes_run(self):
        a = run_service(config())
        b = run_service(config(seed=12))
        assert a.responses != b.responses

    def test_per_client_fifo_responses(self):
        res = run_service(config())
        for client in range(3):
            seqs = [r.seq for r in res.responses if r.client == client]
            assert seqs == sorted(seqs)

    def test_latencies_nonnegative_and_recorded(self):
        res = run_service(config())
        assert all(
            r.completed_at >= r.submitted_at for r in res.responses
        )
        ok_writes = [
            r for r in res.responses if r.status == "ok" and r.kind in ("put", "txn")
        ]
        assert res.committed_writes == len(ok_writes)
        assert res.latency.summary()["count"] == res.acked


class TestClosedLoop:
    def test_all_requests_answered(self):
        res = run_service(config(mode="closed", think_cycles=400))
        assert res.acked == 3 * 8
        assert res.shed == 0

    def test_think_time_spaces_submissions(self):
        res = run_service(config(mode="closed", think_cycles=400))
        for client in range(3):
            times = [
                r.submitted_at for r in res.responses if r.client == client
            ]
            assert times == sorted(times)


class TestBackpressure:
    def test_shed_mode_rejects_when_full(self):
        res = run_service(
            config(
                num_clients=4,
                requests_per_client=12,
                arrival_cycles=80,
                admission=AdmissionPolicy(max_depth=2, mode="shed"),
                batch=GroupCommitPolicy(batch_size=8, max_wait_cycles=6000),
            )
        )
        assert res.shed > 0
        assert res.acked + res.shed == res.requests == 4 * 12
        shed = [r for r in res.responses if r.status == "shed"]
        assert len(shed) == res.shed
        assert all(r.completed_at == r.submitted_at for r in shed)

    def test_block_mode_never_sheds(self):
        res = run_service(
            config(
                arrival_cycles=80,
                admission=AdmissionPolicy(max_depth=2, mode="block"),
            )
        )
        assert res.shed == 0 and res.acked == 3 * 8

    def test_queue_peak_tracked(self):
        res = run_service(config(arrival_cycles=80))
        assert res.stats.service_queue_peak >= 1
        assert res.queue_depth.summary()["max"] >= 1


class TestGroupCommit:
    def test_batching_reduces_commit_count(self):
        mix = {"put": 1.0}
        one = run_service(config(mix=mix, batch=GroupCommitPolicy(batch_size=1)))
        eight = run_service(config(mix=mix, batch=GroupCommitPolicy(batch_size=8)))
        assert one.committed_writes == eight.committed_writes == 3 * 8
        assert one.batches == 3 * 8
        assert eight.batches < one.batches

    def test_batching_amortises_commit_persist(self):
        mix = {"put": 1.0}
        one = run_service(config(mix=mix, batch=GroupCommitPolicy(batch_size=1)))
        eight = run_service(config(mix=mix, batch=GroupCommitPolicy(batch_size=8)))
        assert eight.commit_persist_per_write < one.commit_persist_per_write

    def test_max_wait_forces_partial_batches(self):
        res = run_service(
            config(
                mix={"put": 1.0},
                arrival_cycles=3000,
                batch=GroupCommitPolicy(batch_size=24, max_wait_cycles=100),
            )
        )
        assert res.acked == 3 * 8
        assert res.batches > 1
        assert res.batch_occupancy.summary()["max"] < 24


class TestLifecycle:
    def test_serve_twice_rejected(self):
        svc = TransactionService(config())
        svc.serve()
        with pytest.raises(RuntimeError, match="already ran"):
            svc.serve()
        svc.finish()

    def test_oracle_matches_durable_state(self):
        svc = TransactionService(config())
        res = svc.run()
        assert res.acked == 3 * 8
        # run() already verified durable contents against rm.committed
        # via sync_expected + verify(durable=True); spot-check the
        # oracle is exactly the set of acknowledged written keys.
        acked_writes = {
            key
            for stream in svc.streams
            for request in stream
            if request.is_write
            for key in request.keys
        }
        assert set(svc.rm.committed) <= acked_writes

    def test_metrics_snapshot_excludes_validation_tail(self):
        svc = TransactionService(config())
        svc.serve()
        served_cycles = svc.machine.now
        svc.finish()
        res = svc.result()
        assert res.cycles == served_cycles
        assert svc.machine.now > served_cycles


class TestReadCheck:
    """Every read is checked against the committed oracle."""

    @pytest.fixture
    def served(self):
        svc = TransactionService(config())
        svc.serve()
        assert svc.rm.committed, "run must commit writes"
        return svc

    def test_get_that_disagrees_with_the_oracle_raises(self, served):
        key, value = next(iter(served.rm.committed.items()))
        get = Request(0, 0, "get", (key,))
        assert served.rm.read_get(get) == (value,)
        served.rm.committed[key] = tuple(word + 1 for word in value)
        with pytest.raises(ReadConsistencyError):
            served.rm.read_get(get)

    def test_scan_that_disagrees_with_the_oracle_raises(self, served):
        scan = Request(0, 0, "scan", (0,), scan_count=4)
        assert len(served.rm.read_scan(scan)) == 4
        served.rm.committed[max(served.rm.committed) + 1] = (0,) * 4
        with pytest.raises(ReadConsistencyError):
            served.rm.read_scan(scan)


class TestDurationMode:
    def test_horizon_retires_clients_and_drains(self):
        res = run_service(config(duration_cycles=40_000))
        assert res.duration_cycles == 40_000
        assert res.requests > 0
        # block admission: everything submitted before the horizon is
        # served during the post-horizon drain.
        assert res.acked == res.requests and res.shed == 0

    def test_longer_horizon_extends_the_same_traffic(self):
        # Prefix stability end-to-end: growing the horizon appends
        # requests, it never reshuffles the prefix already served.
        short = run_service(config(duration_cycles=20_000))
        long = run_service(config(duration_cycles=60_000))
        assert long.requests > short.requests
        for client in range(3):
            s = [(r.seq, r.kind) for r in short.responses if r.client == client]
            l = [(r.seq, r.kind) for r in long.responses if r.client == client]
            assert l[: len(s)] == s

    def test_duration_validated(self):
        with pytest.raises(ValueError, match="duration_cycles"):
            config(duration_cycles=0)


class TestServedMemory:
    """What a duration-mode run keeps once it has served: one request
    and one gap per client, and log extent objects only for the live
    positions."""

    @pytest.fixture(scope="class")
    def served(self):
        svc = TransactionService(config(duration_cycles=60_000))
        svc.serve()
        assert svc.machine.stats.service_requests > 3 * 8
        return svc

    def test_streams_hold_one_request_and_one_gap(self, served):
        cfg = served.cfg
        for client, (stream, gaps) in enumerate(zip(served.streams, served._gaps)):
            assert len(reachable(stream, Request)) <= 1
            fresh = ArrivalStream(
                client, mean_cycles=cfg.effective_arrival_cycles, seed=cfg.seed
            )
            fresh.gap(0)
            assert len(reachable(gaps)) <= len(reachable(fresh)) + 1

    def test_pm_holds_extents_only_for_live_positions(self, served):
        # The log is its words: no entry object stays reachable, live
        # or resolved.
        pm = served.machine.pm
        live = sorted(p for positions in pm._live.values() for p in positions)
        assert pm.log_appends > len(live)
        assert reachable(pm, DurableLogEntry) == []


class TestTargetLoad:
    def test_effective_arrival_spreads_load_over_clients(self):
        cfg = config(target_load=0.05)
        # 0.05 req/kcyc over 3 clients -> one request per 60k cycles.
        assert cfg.effective_arrival_cycles == 60_000
        assert config().effective_arrival_cycles == 600

    def test_open_mode_only(self):
        with pytest.raises(ValueError, match="open"):
            config(mode="closed", think_cycles=100, target_load=1.0)
        with pytest.raises(ValueError, match="target_load"):
            config(target_load=0.0)


class TestClientBase:
    def test_identities_offset_by_base(self):
        res = run_service(config(client_base=10))
        assert {r.client for r in res.responses} == {10, 11, 12}
        assert res.client_base == 10

    def test_population_slices_draw_distinct_traffic(self):
        # Global client ids seed the streams, so slice [3, 6) of one
        # logical population is new traffic, not a copy of [0, 3).
        a = run_service(config(client_base=0))
        b = run_service(config(client_base=3))
        assert {(r.client, r.seq, r.kind) for r in a.responses} != {
            (r.client - 3, r.seq, r.kind) for r in b.responses
        }


class TestLocking:
    def _locking_config(self, **overrides):
        return config(
            workload="multistruct",
            locking=True,
            admission=AdmissionPolicy(
                max_depth=64, mode="block", fairness="round-robin"
            ),
            batch=GroupCommitPolicy(batch_size=8),
            **overrides,
        )

    def test_locking_run_acks_everything(self):
        res = run_service(self._locking_config())
        assert res.acked == 3 * 8 and res.shed == 0
        assert res.lock_grants >= res.committed_writes > 0

    def test_locking_is_deterministic(self):
        a = run_service(self._locking_config())
        b = run_service(self._locking_config())
        assert a.responses == b.responses
        assert (a.lock_grants, a.lock_wounds, a.lock_waits) == (
            b.lock_grants, b.lock_wounds, b.lock_waits,
        )

    def test_counters_zero_without_locking(self):
        res = run_service(config())
        assert (res.lock_grants, res.lock_wounds, res.lock_waits) == (0, 0, 0)


@pytest.mark.parametrize("scheme", ["FG", "FG+LG", "SLPMT"])
def test_schemes_smoke(scheme):
    res = run_service(config(scheme=scheme, requests_per_client=5))
    assert res.acked == 3 * 5
    assert res.shed == 0


@pytest.mark.parametrize("workload", ["hashtable", "rbtree", "multistruct"])
def test_workloads_smoke(workload):
    res = run_service(config(workload=workload, requests_per_client=5))
    assert res.acked == 3 * 5

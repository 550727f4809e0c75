"""The sharded deployment: serving, on-demand traffic, 2PC
commit/abort, labelled protocol persists and telemetry passivity."""

import pytest

from repro.common.units import WORD_BYTES
from repro.core.tracing import Tracer
from repro.fuzz.campaign import STRESS_CONFIG
from repro.mem.logregion import DurableLogEntry
from repro.obs.telemetry import TelemetryWindows
from repro.service.model import ClientStream, Request
from repro.service.rm import ReadConsistencyError
from repro.service.tm import GroupCommitPolicy
from repro.shard.deployment import ShardedConfig, ShardedDeployment, run_sharded
from repro.shard.router import home_shard
from repro.shard.twopc import GTX_BASE, PREPARE_ATTEMPTS
from repro.workloads.shared import KEY_BASE
from tests.reachable import reachable

TXN_MIX = {"put": 0.3, "get": 0.1, "scan": 0.05, "txn": 0.55}


def small_cfg(**overrides):
    base = dict(
        num_shards=2,
        workload="hashtable",
        scheme="SLPMT",
        num_clients=3,
        requests_per_client=10,
        value_bytes=32,
        num_keys=24,
        theta=0.6,
        mix=dict(TXN_MIX),
        txn_keys=4,
        arrival_cycles=600,
        batch=GroupCommitPolicy(batch_size=4),
        seed=7,
    )
    base.update(overrides)
    return ShardedConfig(**base)


class TestServing:
    def test_run_is_deterministic(self):
        a = run_sharded(small_cfg(), config=STRESS_CONFIG)
        b = run_sharded(small_cfg(), config=STRESS_CONFIG)
        assert a.cycles == b.cycles
        assert a.pm_bytes == b.pm_bytes
        assert a.responses == b.responses

    def test_acked_writes_reach_their_home_shards(self):
        dep = ShardedDeployment(small_cfg(), config=STRESS_CONFIG)
        dep.serve()
        dep.finish()
        cfg = dep.cfg
        streams = [
            ClientStream(
                client, mix=cfg.mix, num_keys=cfg.num_keys, theta=cfg.theta,
                value_words=cfg.value_bytes // WORD_BYTES, txn_keys=cfg.txn_keys,
                seed=cfg.seed,
            )
            for client in range(cfg.num_clients)
        ]
        # Responses come in ack order, so the last ack of a key is its
        # committed value.
        acked = {}
        for response in dep.responses:
            if response.status == "ok" and response.kind in ("put", "txn"):
                request = streams[response.client].request(response.seq)
                acked.update(zip(request.keys, request.values))
        assert acked, "run must ack writes"
        for key, value in acked.items():
            shard = home_shard(key, cfg.num_shards)
            assert dep.nodes[shard].rm.committed[key] == value
            # Placement: no other shard ever stored the key.
            for node in dep.nodes:
                if node.shard_id != shard:
                    assert key not in node.rm.committed
        assert sum(len(node.rm.committed) for node in dep.nodes) == len(acked)

    def test_cross_shard_transactions_commit(self):
        res = run_sharded(small_cfg(), config=STRESS_CONFIG)
        assert res.xshard_commits > 0
        assert res.xshard_writes > 0
        assert res.prepare_persist_cycles > 0
        assert res.decide_persist_cycles > 0
        assert res.aborted == 0

    def test_verify_runs_against_durable_state(self):
        # run() calls finish() which verifies every shard durably;
        # reaching here without SimulationError IS the assertion.
        res = run_sharded(small_cfg(num_shards=3), config=STRESS_CONFIG)
        assert res.acked == res.requests

    def test_scan_merges_across_shards_in_key_order(self):
        dep = ShardedDeployment(
            small_cfg(mix={"put": 0.7, "scan": 0.3}), config=STRESS_CONFIG
        )
        dep.serve()
        scans = [r for r in dep.responses if r.kind == "scan"]
        assert scans, "mix must generate scans"
        for response in scans:
            keys = [k for k, _ in response.values]
            assert keys == sorted(keys)


class TestShardClocks:
    """Every shard is the service's serving node: its clock reaches each
    arrival, its batches flush on size or age, and it blocks at a full
    queue instead of shedding."""

    def test_no_response_completes_before_it_arrives(self):
        res = run_sharded(small_cfg(arrival_cycles=6000), config=STRESS_CONFIG)
        assert res.acked == res.requests
        assert all(r.completed_at >= r.submitted_at for r in res.responses)

    def test_max_wait_cycles_changes_the_batches(self):
        def batches(max_wait_cycles):
            batch = GroupCommitPolicy(batch_size=4, max_wait_cycles=max_wait_cycles)
            cfg = small_cfg(arrival_cycles=6000, batch=batch)
            return run_sharded(cfg, config=STRESS_CONFIG).batches

        assert batches(400) != batches(4000)

    def test_a_get_reads_its_own_queued_put(self):
        dep = ShardedDeployment(
            small_cfg(requests_per_client=0, batch=GroupCommitPolicy(batch_size=2)),
            config=STRESS_CONFIG,
        )
        key = KEY_BASE + 3
        old, new = (1, 2, 3, 4), (5, 6, 7, 8)
        # Client 1 fills a batch of two, so the old value commits.
        dep._dispatch(Request(1, 0, "put", (key,), (old,)), 10)
        dep._dispatch(Request(1, 1, "put", (key,), (old,)), 20)
        # Client 0's put waits in a partial batch; its get waits behind it.
        dep._dispatch(Request(0, 0, "put", (key,), (new,)), 30)
        dep._dispatch(Request(0, 1, "get", (key,)), 40)
        dep.serve()
        (get,) = [r for r in dep.responses if r.kind == "get"]
        assert get.values == (new,)
        assert get.completed_at >= get.submitted_at == 40

    def test_a_full_queue_blocks_instead_of_shedding(self):
        # A batch of 80 never fills the 64-deep queue: each shard waits
        # at the door for its oldest write's deadline.
        cfg = small_cfg(
            num_clients=6, requests_per_client=200, mix={"put": 0.6, "get": 0.4},
            batch=GroupCommitPolicy(batch_size=80),
        )
        dep = ShardedDeployment(cfg, config=STRESS_CONFIG)
        res = dep.run()
        assert max(n.machine.stats.service_queue_peak for n in dep.nodes) == 64
        assert res.acked == res.requests == 1200
        assert {r.status for r in res.responses} == {"ok"}


class TestReadCheck:
    """A deployment's reads are checked against the home shard's oracle
    (a get) or every shard's (a scan)."""

    @pytest.fixture
    def served(self):
        dep = ShardedDeployment(small_cfg(), config=STRESS_CONFIG)
        dep.serve()
        return dep, dep.nodes[0]

    def test_get_that_disagrees_with_the_oracle_raises(self, served):
        dep, node = served
        key, value = next(iter(node.rm.committed.items()))
        get = Request(0, 0, "get", (key,))
        dep._dispatch(get, 0)
        assert dep.responses[-1].values == (value,)
        node.rm.committed[key] = tuple(word + 1 for word in value)
        with pytest.raises(ReadConsistencyError):
            dep._dispatch(get, 0)

    def test_scan_that_disagrees_with_the_oracle_raises(self, served):
        dep, node = served
        scan = Request(0, 0, "scan", (0,), scan_count=4)
        dep._dispatch(scan, 0)
        assert len(dep.responses[-1].values) == 4
        node.rm.committed[max(node.rm.committed) + 1] = (0,) * 4
        with pytest.raises(ReadConsistencyError):
            dep._dispatch(scan, 0)


class TestOnDemandTraffic:
    """The deployment draws each client's requests as it serves them and
    keeps none of them."""

    def test_serve_draws_each_request_once(self, monkeypatch):
        drawn = []
        draw = ClientStream._draw

        def counted(stream, rng, seq):
            drawn.append((stream.client, seq))
            return draw(stream, rng, seq)

        monkeypatch.setattr(ClientStream, "_draw", counted)
        dep = ShardedDeployment(small_cfg(), config=STRESS_CONFIG)
        assert drawn == []
        dep.serve()
        assert sorted(drawn) == [
            (client, seq)
            for client in range(dep.cfg.num_clients)
            for seq in range(dep.cfg.requests_per_client)
        ]

    def test_no_request_outlives_serve(self):
        dep = ShardedDeployment(small_cfg(), config=STRESS_CONFIG)
        dep.serve()
        assert dep.requests == dep.cfg.num_clients * dep.cfg.requests_per_client
        assert reachable(dep, Request) == []


class TestUnresponsiveParticipant:
    def _cross_shard_deployment(self):
        cfg = small_cfg(
            mix={"txn": 1.0}, num_clients=2, requests_per_client=6
        )
        return ShardedDeployment(cfg, config=STRESS_CONFIG)

    def test_retry_then_success(self):
        dep = self._cross_shard_deployment()
        # Fail fewer prepares than the coordinator's attempt budget:
        # the retry path absorbs them and everything still commits.
        dep.nodes[0].fail_prepares = PREPARE_ATTEMPTS - 1
        dep.serve()
        dep.finish()
        res = dep.result()
        assert res.prepare_retries == PREPARE_ATTEMPTS - 1
        assert res.aborted == 0
        assert res.xshard_commits > 0

    def test_exhausted_retries_abort_globally(self):
        dep = self._cross_shard_deployment()
        clean = self._cross_shard_deployment()
        clean.serve()
        baseline_aborts = clean.result().aborted
        assert baseline_aborts == 0
        # Enough failures to exhaust every attempt for the first gtx.
        dep.nodes[0].fail_prepares = PREPARE_ATTEMPTS
        dep.serve()
        dep.finish()
        res = dep.result()
        assert res.aborted >= 1
        assert res.xshard_aborts >= 1
        aborted = [r for r in dep.responses if r.status == "aborted"]
        assert aborted
        # Global atomicity of the abort: none of the aborted requests'
        # writes is durable anywhere (unless a later txn rewrote it).
        assert dep.coordinator.aborted_gtxs >= 1
        for node in dep.nodes:
            node.rm.sync_expected()
            node.subject.verify(durable=True)


class TestProtocolPersistLabels:
    def test_machine_spans_carry_gtx_and_step(self):
        machine_tracer = Tracer()
        # The coordinator machine is the one that persists decisions;
        # attach the machine tracer through the deployment's coordinator.
        dep = ShardedDeployment(small_cfg(), config=STRESS_CONFIG)
        dep.coordinator.machine.tracer = machine_tracer
        dep.serve()
        dep.finish()
        persists = [
            e for e in machine_tracer.events() if e.kind == "protocol_persist"
        ]
        assert persists, "coordinator never persisted a protocol record"
        for e in persists:
            assert isinstance(e.fields["gtx"], int)
            assert e.fields["step"] in (
                "pre-decision", "prepare-failed", "post-decision",
                "prepared", "applied",
            )
            assert e.fields["records"] >= 1
        steps = {e.fields["step"] for e in persists}
        assert "pre-decision" in steps


class TestShardedTelemetryPassivity:
    def test_bit_identical_with_telemetry(self):
        bare = run_sharded(small_cfg(), config=STRESS_CONFIG)
        telemetry = TelemetryWindows()
        observed = run_sharded(
            small_cfg(), config=STRESS_CONFIG, telemetry=telemetry
        )
        assert bare.cycles == observed.cycles
        assert bare.pm_bytes == observed.pm_bytes
        assert bare.stats.as_dict() == observed.stats.as_dict()
        assert telemetry.total("acked") == observed.acked

    def test_decide_latency_matches_decisions(self):
        telemetry = TelemetryWindows()
        res = run_sharded(
            small_cfg(), config=STRESS_CONFIG, telemetry=telemetry
        )
        decisions = telemetry.total("decisions")
        assert decisions == res.xshard_commits + res.xshard_aborts
        hist = telemetry.merged_hist("decide_latency")
        assert hist.count == decisions
        assert hist.min > 0


class TestConfigValidation:
    def test_single_shard_rejected(self):
        # One machine has no cross-shard protocol to exercise.
        with pytest.raises(ValueError, match="num_shards"):
            ShardedConfig(num_shards=1)

    def test_more_than_eight_shards_rejected(self):
        with pytest.raises(ValueError):
            ShardedConfig(num_shards=9)

    def test_no_clients_rejected(self):
        with pytest.raises(ValueError, match="num_clients"):
            ShardedConfig(num_clients=0)

    def test_empty_key_population_rejected(self):
        with pytest.raises(ValueError, match="num_keys"):
            ShardedConfig(num_keys=0)

    def test_non_positive_arrival_gap_rejected(self):
        with pytest.raises(ValueError, match="arrival_cycles"):
            ShardedConfig(arrival_cycles=0)

    def test_negative_request_count_rejected(self):
        with pytest.raises(ValueError, match="requests_per_client"):
            ShardedConfig(requests_per_client=-1)

    def test_oversized_values_rejected(self):
        # A prepare record's payload caps at 8 words = 64 bytes.
        with pytest.raises(ValueError):
            ShardedConfig(value_bytes=128)


class TestGtxNamespace:
    def test_global_seqs_clear_local_ranges(self):
        dep = ShardedDeployment(small_cfg(), config=STRESS_CONFIG)
        dep.serve()
        coordinator = dep.coordinator
        decided = coordinator.committed_gtxs + coordinator.aborted_gtxs
        assert decided, "run must produce global transactions"
        # One durable decision record per decided gtx.  The coordinator
        # forgot each from its live index; the log bytes keep them.
        entries = coordinator.machine.pm.parse_byte_log_tolerant().entries
        assert {e.kind for e in entries} <= {"decide-commit", "decide-abort"}
        gtxs = {entry.tx_seq for entry in entries}
        assert len(gtxs) == len(entries) == decided
        assert all(gtx > GTX_BASE for gtx in gtxs)
        # Local per-core seqs live at core_id * 10**12 + n — far below.
        assert GTX_BASE > 8 * 10**12


class TestLiveLog:
    """Each shard is a plain single-core machine.  A local commit
    reclaims its transaction's records at once, and every node forgets a
    global transaction's protocol records once no recovery can need them
    (a participant after its seal, the coordinator after phase 2): after
    serving, no node's live structural log holds a record, while the
    serialized bytes keep the whole history."""

    @pytest.fixture(scope="class")
    def served(self):
        mix = {"put": 0.40, "get": 0.20, "scan": 0.05, "txn": 0.35}
        dep = ShardedDeployment(
            small_cfg(num_shards=4, mix=mix, requests_per_client=20),
            config=STRESS_CONFIG,
        )
        dep.serve()
        assert dep.result().batches and dep.coordinator.committed_gtxs, (
            "run must commit local and global work"
        )
        return dep

    def test_no_local_record_outlives_its_commit(self, served):
        dep = served
        for label, machine in dep.all_machines():
            assert machine.pm.log == [], label
            entries = machine.pm.parse_byte_log_tolerant().entries
            assert any(e.tx_seq >= GTX_BASE for e in entries), label
            sealed = {e.tx_seq for e in entries if e.kind == "commit"}
            assert all(
                e.tx_seq in sealed for e in entries if e.tx_seq < GTX_BASE
            ), label
            # A participant forgets a stage only once its seal is durable.
            assert {e.tx_seq for e in entries if e.kind == "prepare"} <= sealed
        for node in dep.nodes:
            assert node.machine.checkpoint is None
            assert node.machine.coherence is None

    def test_live_index_holds_no_position_after_serving(self, served):
        for label, machine in served.all_machines():
            pm = machine.pm
            assert pm.log_appends, label
            assert pm._live == {}, label
            assert reachable(pm, DurableLogEntry) == [], label

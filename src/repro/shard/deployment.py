"""The N-shard deployment: hash-routed serving over independent systems.

Each shard is a :class:`~repro.service.server.ServingNode`, the node
:class:`~repro.service.server.TransactionService` serves from: its own
:class:`~repro.core.machine.Machine` and
:class:`~repro.mem.pm.PersistentMemory`, durable structure, resource
and transaction managers, and a ``block`` admission queue that
group-commits a batch when it is full or its oldest write has waited
``batch.max_wait_cycles``.  A :class:`~repro.shard.router.HashRouter`
hands single-shard traffic to its home shard; multi-key transactions
that span shards go through the :class:`~repro.shard.twopc.
Coordinator`'s presumed-abort two-phase commit, every protocol decision
durable as a v1 log record before it takes effect.

Determinism: streams, arrivals, routing and every protocol step derive
from :class:`ShardedConfig` alone.  Each client's requests and arrival
gaps are drawn on demand from the forward streams the single-node
service serves from (:class:`~repro.service.model.ClientStream`,
:class:`~repro.service.model.ArrivalStream`), and the clients' events
are merged into one global ``(arrival time, client)`` order, so the
deployment never holds its traffic.  Each arrival advances only the
nodes it touches: a batch that falls due first flushes at its
deadline, then the node's clock idles to the arrival, as the service's
clock does.  At end of stream every node drains its queue.  Two runs of
one config are byte-identical.

A deployment has 2–8 shards: one machine has no cross-shard protocol
to exercise (that is :class:`~repro.service.server.TransactionService`),
and a decision record's participant set must fit its 8-word payload.

Durability semantics (the campaign's contract): an ``ok`` response is
recorded only after the covering commit is durable — a local batch's
``tx_end``, or phase 2 of 2PC completing on *every* participant.  An
``aborted`` response (coordinator gave up on an unresponsive
participant) guarantees the transaction is durable *nowhere*.  A crash
mid-protocol leaves at most one local batch (its node's ``inflight``)
and one global transaction (``inflight_gtx``) undecided; recovery
resolves the latter from durable decision records alone
(:func:`repro.shard.recovery.recover_deployment`).
"""

from __future__ import annotations

import heapq
from dataclasses import dataclass, field
from typing import Dict, Iterator, List, Optional, Sequence, Tuple

from repro.common import units
from repro.common.config import DEFAULT_CONFIG, SystemConfig
from repro.common.errors import SimulationError
from repro.common.stats import SimStats
from repro.mem.logregion import DurableLogEntry
from repro.multicore.system import run_atomically
from repro.service.admission import AdmissionPolicy
from repro.service.model import ArrivalStream, ClientStream, Request, Response
from repro.service.server import ServiceConfig, ServingNode
from repro.service.tm import BATCH_ATTEMPTS, GroupCommitPolicy
from repro.shard.router import HashRouter
from repro.shard.twopc import (
    GTX_BASE,
    Coordinator,
    PreparedWrite,
    ShardUnavailable,
)


@dataclass
class ShardedConfig:
    """Everything an N-shard run derives from (all seeded, all scalar).

    The serving knobs mirror :class:`~repro.service.server.ServiceConfig`
    (open-loop only).  The bounds below are the only statement of which
    shapes a deployment takes; the fuzz CLI and the 2PC reproducer
    loader ask this class rather than restate them.
    """

    num_shards: int = 2
    workload: str = "hashtable"
    scheme: str = "SLPMT"
    num_clients: int = 4
    requests_per_client: int = 25
    value_bytes: int = 64
    num_keys: int = 64
    theta: float = 0.0
    mix: Optional[Dict[str, float]] = None
    txn_keys: int = 3
    arrival_cycles: int = 3000
    batch: GroupCommitPolicy = field(default_factory=GroupCommitPolicy)
    seed: int = 2023
    verify: bool = True

    def __post_init__(self) -> None:
        if not 2 <= self.num_shards <= 8:
            # One shard has no cross-shard protocol.  A decision record
            # carries the participant set as payload words; the v1 wire
            # format caps payloads at 8 words.
            raise ValueError("num_shards must be between 2 and 8")
        if self.value_bytes // units.WORD_BYTES > 8:
            raise ValueError(
                "value_bytes must fit a prepare record's 8-word payload"
            )
        if self.num_clients < 1:
            raise ValueError("num_clients must be at least 1")
        if self.num_keys < 1:
            raise ValueError("num_keys must be at least 1")
        if self.arrival_cycles < 1:
            raise ValueError("arrival_cycles must be positive")
        if self.requests_per_client < 0:
            raise ValueError("requests_per_client must be non-negative")


class ShardNode(ServingNode):
    """One shard: a serving node plus its 2PC participant half.

    The deployment feeds the node: :meth:`advance` runs it to an
    arrival, :meth:`offer` hands it the request.  Its queue blocks at
    the service's default depth (a shard never sheds), and every
    response lands in the deployment's one list.

    The participant contract (what the coordinator calls):

    * :meth:`prepare` — stage the writes and make them durable as
      ``prepare`` records sealed by a ``prepared`` marker (phase
      ``prepare-persist``); raising :class:`~repro.shard.twopc.
      ShardUnavailable` models an unresponsive shard.
    * :meth:`commit` — persist the shard's own ``decide-commit`` record,
      apply the staged writes in one local transaction, then seal with a
      plain ``commit`` marker at the global seq (the *applied* marker
      recovery uses for idempotence).
    * :meth:`abort` — persist ``decide-abort`` and drop the stage.

    Right after its applied seal (phase 2 or recovery's re-apply) or its
    ``decide-abort``, the participant *forgets* the global transaction:
    :meth:`~repro.mem.pm.PersistentMemory.log_discard_tx` drops its
    records from the PM live index, and they stay on the media only as
    serialized words.  Recovery re-applies only a stage with no seal,
    and presumed abort reads a missing stage as abort, so no recovery
    needs a forgotten record.
    """

    def __init__(
        self,
        shard_id: int,
        cfg: ShardedConfig,
        *,
        config: SystemConfig = DEFAULT_CONFIG,
        telemetry=None,
        responses: List[Response],
    ) -> None:
        super().__init__(
            ServiceConfig(
                workload=cfg.workload,
                scheme=cfg.scheme,
                value_bytes=cfg.value_bytes,
                batch=cfg.batch,
                admission=AdmissionPolicy(mode="block"),
                verify=cfg.verify,
            ),
            config=config,
            telemetry=telemetry,
        )
        self.shard_id = shard_id
        self.responses = responses
        #: Prepared-but-undecided global transactions: gtx -> writes.
        self.staged: Dict[int, List[PreparedWrite]] = {}
        #: Test hook: fail the next N prepare calls (unresponsive shard).
        self.fail_prepares = 0

    def advance(self, at: int) -> None:
        """Run the node to arrival time *at*: a batch that falls due by
        then flushes at its deadline, then the clock idles to *at*."""
        while True:
            if self.pump():
                continue
            deadline = self.deadline()
            if deadline is None or deadline > at:
                break
            self.machine.now = deadline
        self.machine.now = max(self.machine.now, at)

    def offer(self, request: Request, at: int) -> None:
        """Admit *request*, submitted at *at*, and serve what it made
        ready.  While the queue is full the request waits at the door:
        the node runs to its next deadline, flushes and serves reads."""
        while not self.queue.has_room:
            self.machine.now = self.deadline()
            self.pump()
        self.admit(request, at)
        self.pump()

    # --- 2PC participant half -------------------------------------------

    def prepare(self, gtx: int, writes: "Sequence[PreparedWrite]") -> None:
        if self.fail_prepares > 0:
            self.fail_prepares -= 1
            raise ShardUnavailable(
                f"shard {self.shard_id} unresponsive to prepare({gtx})"
            )
        entries = [
            DurableLogEntry(kind="prepare", tx_seq=gtx, addr=key, words=value)
            for key, value in writes
        ]
        entries.append(DurableLogEntry(kind="prepared", tx_seq=gtx))
        self.machine.persist_protocol_entries(
            entries,
            phase="prepare-persist",
            label={"gtx": gtx - GTX_BASE, "step": "prepared"},
        )
        self.staged[gtx] = list(writes)

    def commit(self, gtx: int, shard_ids: "Sequence[int]") -> None:
        writes = self.staged.get(gtx)
        if writes is None:
            raise SimulationError(
                f"shard {self.shard_id}: commit({gtx}) without prepare"
            )
        # The shard's own durable copy of the decision: recovery can
        # resolve from any surviving log, not only the coordinator's.
        self.machine.persist_protocol_entries(
            [
                DurableLogEntry(
                    kind="decide-commit",
                    tx_seq=gtx,
                    addr=self.shard_id,
                    words=tuple(shard_ids),
                )
            ],
            phase="decide-persist",
            label={"gtx": gtx - GTX_BASE, "step": "post-decision"},
        )
        self.apply_staged(gtx, writes)

    def apply_staged(self, gtx: int, writes: "Sequence[PreparedWrite]") -> None:
        """Apply *writes* in one local transaction and seal it with the
        applied marker (shared by phase 2 and crash recovery)."""
        for key, _ in writes:
            self.subject.before_transaction(key)

        def body() -> None:
            for key, value in writes:
                self.subject._insert(key, list(value))

        run_atomically(self.rt, body, max_attempts=BATCH_ATTEMPTS)
        # Seal: a plain commit marker at the global seq.  Recovery skips
        # the re-apply on shards whose log shows this marker.
        self.machine.persist_protocol_entries(
            [DurableLogEntry(kind="commit", tx_seq=gtx)],
            phase="decide-persist",
            label={"gtx": gtx - GTX_BASE, "step": "applied"},
        )
        # Forget: once sealed, no recovery re-applies this stage.
        self.machine.pm.log_discard_tx(gtx)
        for key, value in writes:
            self.rm.committed[key] = tuple(value)
        self.staged.pop(gtx, None)

    def abort(self, gtx: int, shard_ids: "Sequence[int]") -> None:
        if gtx in self.staged:
            self.machine.persist_protocol_entries(
                [
                    DurableLogEntry(
                        kind="decide-abort",
                        tx_seq=gtx,
                        addr=self.shard_id,
                        words=tuple(shard_ids),
                    )
                ],
                phase="decide-persist",
                label={"gtx": gtx - GTX_BASE, "step": "post-decision"},
            )
            # Forget: presumed abort reads no records as abort.
            self.machine.pm.log_discard_tx(gtx)
            del self.staged[gtx]


@dataclass
class ShardedResult:
    """Headline metrics of one sharded run (cycles / pm_bytes summed
    over every node and the coordinator, snapshotted at end of serving)."""

    num_shards: int
    workload: str
    scheme: str
    requests: int
    acked: int
    aborted: int
    reads: int
    batches: int
    committed_writes: int
    xshard_commits: int
    xshard_aborts: int
    xshard_writes: int
    prepare_retries: int
    cycles: int
    pm_bytes: int
    prepare_persist_cycles: int
    decide_persist_cycles: int
    phases: Dict[str, int]
    responses: List[Response]
    stats: SimStats

    @property
    def decide_persist_per_xwrite(self) -> float:
        """Decision-persist cycles amortised per committed cross-shard
        key write — the 2PC overhead headline."""
        return self.decide_persist_cycles / max(1, self.xshard_writes)


class ShardedDeployment:
    """N shards, one router, one coordinator (see module docstring)."""

    def __init__(
        self,
        cfg: ShardedConfig,
        *,
        config: SystemConfig = DEFAULT_CONFIG,
        telemetry=None,
    ) -> None:
        self.cfg = cfg
        #: Windowed metrics sink.  Each node windows its own samples by
        #: its own clock, and 2PC decide latency lives entirely on the
        #: coordinator clock.  Node clocks only reach an arrival when
        #: the request touches the node, so windows from different
        #: nodes are comparable but not globally ordered.
        self.telemetry = telemetry
        self.router = HashRouter(cfg.num_shards)
        self.responses: List[Response] = []
        self.nodes = [
            ShardNode(
                shard,
                cfg,
                config=config,
                telemetry=telemetry,
                responses=self.responses,
            )
            for shard in range(cfg.num_shards)
        ]
        self.coordinator = Coordinator(
            cfg.num_shards, cfg.scheme, config, telemetry=telemetry
        )
        #: The global transaction inside ``commit_global`` right now:
        #: ``(gtx, {shard: [(key, value)]}, request)``.
        self.inflight_gtx: Optional[
            Tuple[int, Dict[int, List[PreparedWrite]], Request]
        ] = None
        self.requests = 0
        self.reads = 0
        self.xshard_writes = 0
        self._served = False
        self._finished = False
        self._serve_end: Optional[Tuple[int, int, Dict[str, int]]] = None

    # --- machine inventory (crash/fault harness) ------------------------

    def all_machines(self) -> "List[Tuple[str, object]]":
        """Every machine in the deployment, labelled: the coordinator as
        ``coord``, shard *i* as ``s{i}`` — the crash/fault injection
        surface."""
        out: List[Tuple[str, object]] = [("coord", self.coordinator.machine)]
        out.extend((f"s{n.shard_id}", n.machine) for n in self.nodes)
        return out

    def crash(self) -> None:
        """Power-fail every machine, the coordinator first."""
        for _, machine in self.all_machines():
            machine.crash()

    # --- serving ---------------------------------------------------------

    def serve(self) -> None:
        if self._served:
            raise RuntimeError("serve() already ran")
        self._served = True
        clients = map(self._arrivals, range(self.cfg.num_clients))
        for at, _, request in heapq.merge(*clients):
            self._dispatch(request, at)
        for node in self.nodes:
            node.drain()
        self._serve_end = (
            self._total_cycles(),
            self._total_pm_bytes(),
            self._merged_phases(),
        )

    def _arrivals(self, client: int) -> Iterator[Tuple[int, int, Request]]:
        """One client's ``(arrival, client, request)`` events in stream
        order, each drawn when the merge asks for it.  Gaps are at least
        1, so no two events share ``(arrival, client)`` and the merge
        never compares two requests."""
        cfg = self.cfg
        requests = ClientStream(
            client,
            mix=cfg.mix,
            num_keys=cfg.num_keys,
            theta=cfg.theta,
            value_words=cfg.value_bytes // units.WORD_BYTES,
            txn_keys=cfg.txn_keys,
            seed=cfg.seed,
        )
        gaps = ArrivalStream(
            client, mean_cycles=cfg.arrival_cycles, seed=cfg.seed
        )
        at = 0
        for seq in range(cfg.requests_per_client):
            at += gaps.gap(seq)
            yield at, client, requests.request(seq)

    def _dispatch(self, request: Request, at: int) -> None:
        self.requests += 1
        if not request.is_write:
            self.reads += 1
        if request.kind == "scan":
            self._scan(request, at)
            return
        spans = self.router.spans(request.keys)
        if len(spans) > 1:
            self._commit_cross_shard(request, at)
            return
        node = self.nodes[spans[0]]
        node.advance(at)
        node.offer(request, at)

    def _scan(self, request: Request, at: int) -> None:
        """A scan fans out to every shard at its arrival (each checks
        against its own slice of the oracle) and merges by key order."""
        merged: List[Tuple[int, Tuple[int, ...]]] = []
        for node in self.nodes:
            node.advance(at)
            merged.extend(node.rm.read_scan(request))
        merged.sort()
        last = max(self.nodes, key=lambda node: node.machine.now)
        last.reply(request, at, values=tuple(merged[: request.scan_count]))

    # --- cross-shard transactions ----------------------------------------

    def _commit_cross_shard(self, request: Request, at: int) -> None:
        groups = self.router.split(request.keys)
        participants = {shard: self.nodes[shard] for shard in groups}
        # Drain the participants first so the global transaction orders
        # after every request they already accepted.
        for node in participants.values():
            node.advance(at)
            node.drain()
        coordinator = self.coordinator
        coordinator.machine.now = max(coordinator.machine.now, at)
        plan: Dict[int, List[PreparedWrite]] = {
            shard: [
                (key, tuple(request.values[index])) for index, key in pairs
            ]
            for shard, pairs in groups.items()
        }
        gtx = coordinator.new_gtx()
        self.inflight_gtx = (gtx, plan, request)
        fate = coordinator.commit_global(gtx, plan, participants)
        last = max(participants.values(), key=lambda node: node.machine.now)
        if fate == "commit":
            self.xshard_writes += len(request.keys)
            last.reply(request, at)
        else:
            last.reply(
                request, at, "aborted", completed_at=coordinator.machine.now
            )
        self.inflight_gtx = None

    # --- lifecycle --------------------------------------------------------

    def finish(self) -> None:
        """Validation tail of every shard, then the coordinator's."""
        if self._finished:
            return
        self._finished = True
        for node in self.nodes:
            node.finish()
        self.coordinator.machine.finalize()

    def _total_cycles(self) -> int:
        return self.coordinator.machine.now + sum(
            node.machine.now for node in self.nodes
        )

    def _total_pm_bytes(self) -> int:
        return self.coordinator.machine.stats.pm_bytes_written + sum(
            node.machine.stats.pm_bytes_written for node in self.nodes
        )

    def _merged_phases(self) -> Dict[str, int]:
        merged: Dict[str, int] = {}
        profilers = [self.coordinator.profiler] + [
            node.profiler for node in self.nodes
        ]
        for profiler in profilers:
            for phase, cycles in profiler.phase_cycles.items():
                merged[phase] = merged.get(phase, 0) + cycles
        return merged

    def result(self) -> ShardedResult:
        if self._serve_end is not None:
            cycles, pm_bytes, phases = self._serve_end
        else:
            cycles = self._total_cycles()
            pm_bytes = self._total_pm_bytes()
            phases = self._merged_phases()
        stats = SimStats()
        for node in self.nodes:
            stats.add(node.machine.stats)
        stats.add(self.coordinator.machine.stats)
        coordinator = self.coordinator
        return ShardedResult(
            num_shards=self.cfg.num_shards,
            workload=self.cfg.workload,
            scheme=self.cfg.scheme,
            requests=self.requests,
            acked=sum(1 for r in self.responses if r.status == "ok"),
            aborted=coordinator.aborted_gtxs,
            reads=self.reads,
            batches=stats.service_batches,
            committed_writes=coordinator.committed_gtxs
            + sum(node.committed_writes for node in self.nodes),
            xshard_commits=coordinator.committed_gtxs,
            xshard_aborts=coordinator.aborted_gtxs,
            xshard_writes=self.xshard_writes,
            prepare_retries=coordinator.prepare_retries,
            cycles=cycles,
            pm_bytes=pm_bytes,
            prepare_persist_cycles=phases.get("prepare-persist", 0),
            decide_persist_cycles=phases.get("decide-persist", 0),
            phases=phases,
            responses=list(self.responses),
            stats=stats,
        )

    def run(self) -> ShardedResult:
        """serve + finish + result (the one-call front door)."""
        self.serve()
        self.finish()
        return self.result()


def run_sharded(
    cfg: ShardedConfig,
    *,
    config: SystemConfig = DEFAULT_CONFIG,
    telemetry=None,
) -> ShardedResult:
    """Build and run one :class:`ShardedDeployment`."""
    return ShardedDeployment(cfg, config=config, telemetry=telemetry).run()

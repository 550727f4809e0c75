"""The transaction service: WC event loop over TM and RM.

One :class:`TransactionService` is a complete simulated serving system
on one machine:

* the **work coordinator** (this module) is a :class:`ServingNode`
  plus the client schedule that decides when each request arrives; the
  node admits arrivals through the bounded
  :class:`~repro.service.admission.AdmissionQueue`, serves ready reads
  immediately and drains eligible writes into group-commit batches per
  the :class:`~repro.service.tm.GroupCommitPolicy`;
* the **transaction manager** runs each batch as a single durable
  transaction (one commit-persist drain per batch);
* the **resource manager** applies typed ops to the durable structure
  and keeps the committed oracle.

Determinism: client streams, arrival times and every scheduling
decision derive from :class:`ServiceConfig` alone — two runs of the
same config produce byte-identical responses, cycles and histograms.
Simulated time only advances through simulated work (reads, batch
transactions) or explicit idle jumps to the next event (an arrival or a
group-commit deadline), so request latencies are exact cycle counts.
Every shard of a :class:`~repro.shard.deployment.ShardedDeployment` is
the same :class:`ServingNode`, fed by the deployment's router instead
of a client schedule.

Durability semantics: an ``ok`` write response is recorded immediately
after its batch's ``tx_end`` returned — the commit marker is durable —
with no simulated instruction in between.  A crash therefore can never
separate a committed batch from its acknowledgements: every acked
request is durable, and every unacked write is either absent or part of
the single currently-committing batch (atomic all-or-nothing).  The
service crash campaign (``python -m repro fuzz --service``) proves both
at every durability-event point.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Dict, List, Optional, Tuple

from repro.common import units
from repro.common.config import DEFAULT_CONFIG, SystemConfig
from repro.common.stats import SimStats
from repro.core.machine import Machine
from repro.core.schemes import scheme_by_name
from repro.obs.histogram import LogHistogram
from repro.obs.profiler import CycleProfiler
from repro.obs.telemetry import TelemetryWindows
from repro.runtime.hints import MANUAL
from repro.runtime.ptx import PTx
from repro.workloads import WORKLOADS

from repro.service.admission import AdmissionPolicy, AdmissionQueue, QueuedRequest
from repro.service.locks import LockManager
from repro.service.model import (
    ArrivalStream,
    ClientStream,
    Request,
    Response,
)
from repro.service.rm import make_resource_manager
from repro.service.tm import GroupCommitPolicy, TransactionManager

#: Client-loop modes.
CLIENT_MODES = ("open", "closed")


@dataclass
class ServiceConfig:
    """Everything a service run derives from (all seeded, all scalar)."""

    workload: str = "hashtable"
    scheme: str = "SLPMT"
    num_clients: int = 4
    requests_per_client: int = 25
    value_bytes: int = 64
    num_keys: int = 64
    theta: float = 0.0
    #: Request mix weights (None: :data:`repro.service.model.DEFAULT_MIX`).
    mix: Optional[Dict[str, float]] = None
    #: ``open``: seeded arrival times, independent of responses;
    #: ``closed``: each client thinks after its previous response.
    mode: str = "open"
    arrival_cycles: int = 3000
    think_cycles: int = 1500
    batch: GroupCommitPolicy = field(default_factory=GroupCommitPolicy)
    admission: AdmissionPolicy = field(default_factory=AdmissionPolicy)
    seed: int = 2023
    verify: bool = True
    #: First global client id this service hosts.  A sharded population
    #: run gives every worker's service the same seed but a disjoint
    #: ``[client_base, client_base + num_clients)`` id slice, so the
    #: per-client streams (seeded by global id) never collide and the
    #: merged run equals one big service by construction.
    client_base: int = 0
    #: Duration mode: run until the simulated clock passes this horizon
    #: (cycles from serve start) instead of until a fixed request count.
    #: Arrivals due at or before the horizon are admitted; the queue
    #: drains afterwards.  ``requests_per_client`` is ignored — streams
    #: extend lazily and prefix-stably as far as the horizon demands.
    duration_cycles: Optional[int] = None
    #: Offered load in requests per 1000 cycles, spread over the
    #: client population (open mode only); overrides ``arrival_cycles``.
    target_load: Optional[float] = None
    #: Route write batches through the wound-wait
    #: :class:`~repro.service.locks.LockManager` (multi-structure
    #: transactions acquire their named structures in canonical order).
    locking: bool = False
    #: Keep every :class:`~repro.service.model.Response` object on the
    #: service (set False for campaign-scale runs: telemetry, stats and
    #: the committed oracle still capture the run).
    keep_responses: bool = True

    def __post_init__(self) -> None:
        if self.mode not in CLIENT_MODES:
            raise ValueError(
                f"mode must be one of {CLIENT_MODES}, got {self.mode!r}"
            )
        if self.num_clients < 1:
            raise ValueError("num_clients must be at least 1")
        if self.client_base < 0:
            raise ValueError("client_base must be non-negative")
        if self.duration_cycles is not None and self.duration_cycles < 1:
            raise ValueError("duration_cycles must be positive")
        if self.target_load is not None:
            if self.target_load <= 0:
                raise ValueError("target_load must be positive")
            if self.mode != "open":
                raise ValueError("target_load needs mode='open'")

    @property
    def effective_arrival_cycles(self) -> int:
        """Mean interarrival gap per client: ``arrival_cycles``, or the
        gap that spreads ``target_load`` requests/kcyc over the client
        population when a target load is set."""
        if self.target_load is not None:
            return max(1, round(1000 * self.num_clients / self.target_load))
        return self.arrival_cycles


@dataclass
class ServiceResult:
    """Headline metrics of one service run.

    ``cycles`` / ``pm_bytes`` / ``phases`` / ``commit_persist_cycles``
    are snapshotted at the end of *serving* — before the validation
    fence — so they describe exactly the client-visible work.
    """

    workload: str
    scheme: str
    mode: str
    num_clients: int
    requests_per_client: int
    batch_size: int
    max_wait_cycles: int
    max_depth: int
    admission_mode: str
    fairness: str
    theta: float
    num_keys: int
    value_bytes: int
    seed: int
    requests: int
    acked: int
    shed: int
    reads: int
    batches: int
    committed_writes: int
    cycles: int
    pm_bytes: int
    commit_persist_cycles: int
    phases: Dict[str, int]
    latency: LogHistogram
    batch_occupancy: LogHistogram
    queue_depth: LogHistogram
    responses: List[Response]
    stats: SimStats
    #: Duration-mode horizon (None for fixed request counts).
    duration_cycles: Optional[int] = None
    #: First global client id (population slice; 0 standalone).
    client_base: int = 0
    #: Wound-wait lock-manager counters (zero when locking is off).
    lock_grants: int = 0
    lock_wounds: int = 0
    lock_waits: int = 0

    @property
    def commit_persist_per_write(self) -> float:
        """Commit-persist cycles amortised per committed write request —
        the group-commit headline metric."""
        return self.commit_persist_cycles / max(1, self.committed_writes)


class ServingNode:
    """One serving node: a machine and its durable structure behind the
    RM, the TM and a bounded admission queue.  It admits a request at
    its own clock, serves ready reads at once, group-commits a batch
    when it is full or its oldest write has waited ``max_wait_cycles``
    (:meth:`deadline`), records every response and runs the validation
    tail.  When arrivals happen is the subclass's business."""

    def __init__(
        self,
        cfg: ServiceConfig,
        *,
        config: SystemConfig = DEFAULT_CONFIG,
        telemetry: "Optional[TelemetryWindows]" = None,
    ) -> None:
        self.cfg = cfg
        #: Windowed metrics sink (passive: only reads the clock).
        self.telemetry = telemetry
        self.machine = Machine(scheme_by_name(cfg.scheme), config)
        self.profiler = CycleProfiler()
        self.profiler.bind(self.machine.now)
        self.machine.profiler = self.profiler
        self.rt = PTx(self.machine, policy=MANUAL)
        self.subject = WORKLOADS[cfg.workload](
            self.rt, value_bytes=cfg.value_bytes
        )
        self.rm = make_resource_manager(self.subject)
        self.tm = TransactionManager(self.rt, self.rm)
        self.queue = AdmissionQueue(cfg.admission)
        self.locks = LockManager() if cfg.locking else None
        self.responses: List[Response] = []
        #: The batch currently inside :meth:`~..tm.TransactionManager.
        #: commit_batch` — non-empty exactly while a group commit is in
        #: flight (the crash campaign's all-or-nothing set).
        self.inflight: List[Request] = []
        self.committed_writes = 0
        self._finished = False

    def record(self, response: Response) -> None:
        if self.cfg.keep_responses:
            self.responses.append(response)
        if self.telemetry is not None:
            at = response.completed_at
            if response.status == "ok":
                self.telemetry.count(at, "acked")
                self.telemetry.record(at, "latency", response.latency)
                if response.kind in ("get", "scan"):
                    self.telemetry.count(at, "reads")
                else:
                    self.telemetry.count(at, "writes")
            else:
                self.telemetry.count(at, response.status)
        if response.status == "ok":
            self.machine.stats.service_acked += 1
            self.profiler.record("req_latency", response.latency)

    def reply(
        self,
        request: Request,
        submitted_at: int,
        status: str = "ok",
        values: Tuple = (),
        completed_at: Optional[int] = None,
    ) -> None:
        """Record *request*'s response, completed now unless given."""
        if completed_at is None:
            completed_at = self.machine.now
        self.record(
            Response(
                client=request.client,
                seq=request.seq,
                kind=request.kind,
                status=status,
                submitted_at=submitted_at,
                completed_at=completed_at,
                values=values,
            )
        )

    def admit(self, request: Request, submitted_at: int) -> None:
        """Queue *request* at this node's clock (the caller made room)."""
        self.machine.stats.service_requests += 1
        self.queue.admit(
            QueuedRequest(
                request=request,
                submitted_at=submitted_at,
                admitted_at=self.machine.now,
            )
        )
        self.profiler.record("queue_depth", self.queue.depth)
        if self.telemetry is not None:
            self.telemetry.record(
                self.machine.now, "queue_depth", self.queue.depth
            )
        self.machine.stats.service_queue_peak = max(
            self.machine.stats.service_queue_peak, self.queue.depth
        )

    def pump(self) -> bool:
        """Serve every ready read, then group-commit one batch if one is
        due; True when anything was answered."""
        progressed = self._serve_reads()
        if self._should_flush():
            self._flush()
            progressed = True
        return progressed

    def drain(self) -> None:
        """Answer everything queued, flushing partial batches at once."""
        while self.pump() or self._flush():
            pass

    def deadline(self) -> Optional[int]:
        """When the oldest queued write's batch falls due, or None."""
        oldest = self.queue.oldest_write_admitted_at()
        if oldest is None:
            return None
        wait = self.cfg.batch.max_wait_cycles
        return max(self.machine.now + 1, oldest + wait)

    def _more_arrivals_possible(self) -> bool:
        # A node fed from outside never knows; drain() ends it.
        return True

    def _serve_reads(self) -> bool:
        ready = self.queue.pop_ready_reads()
        for item in ready:
            request = item.request
            if request.kind == "get":
                values = self.rm.read_get(request)
            else:
                values = self.rm.read_scan(request)
            self.machine.stats.service_reads += 1
            self.reply(request, item.submitted_at, values=values)
        return bool(ready)

    def _should_flush(self) -> bool:
        eligible = self.queue.eligible_writes(self.cfg.batch.batch_size)
        if eligible == 0:
            return False
        if eligible >= self.cfg.batch.batch_size:
            return True
        oldest = self.queue.oldest_write_admitted_at()
        if (
            oldest is not None
            and self.machine.now - oldest >= self.cfg.batch.max_wait_cycles
        ):
            return True
        return not self._more_arrivals_possible()

    def _flush(self) -> bool:
        batch = self.queue.take_batch(self.cfg.batch.batch_size)
        if not batch:
            return False
        if self.locks is not None:
            # Wound-wait over named structures: granted requests ride
            # this batch (locks implicitly released when its single
            # durable transaction commits); deferred requests go back to
            # the queue front and lead the next batch, oldest first.
            batch, deferred = self.locks.resolve(
                batch, self.rm.structures_of
            )
            if deferred:
                self.queue.readmit_front(deferred)
            if not batch:
                return True
        requests = [item.request for item in batch]
        self.machine.stats.service_batches += 1
        self.machine.stats.service_batched_writes += len(batch)
        self.profiler.record("batch_occupancy", len(batch))
        if self.telemetry is not None:
            self.telemetry.count(self.machine.now, "batches")
        for request in requests:
            for key in request.keys:
                self.subject.before_transaction(key)
        self.inflight = requests
        self.tm.commit_batch(requests)
        # tx_end returned: the batch's commit marker is durable.  The
        # acks below involve no simulated work, so no crash point can
        # separate them from the commit.
        for item in batch:
            self.committed_writes += 1
            self.reply(item.request, item.submitted_at)
        self.inflight = []
        return True

    def finish(self) -> None:
        """Post-serving validation tail: force lazy state durable, run
        end-of-run accounting and verify the durable image against the
        committed oracle."""
        if self._finished:
            return
        self._finished = True
        self.rt.run_empty_transactions(self.machine.config.num_tx_ids)
        self.machine.fence()
        self.machine.finalize()
        if self.cfg.verify:
            self.rm.sync_expected()
            self.subject.verify(durable=True)


class TransactionService(ServingNode):
    """One serving node and its N simulated clients (see module
    docstring)."""

    def __init__(
        self,
        cfg: ServiceConfig,
        *,
        config: SystemConfig = DEFAULT_CONFIG,
        telemetry: "Optional[TelemetryWindows]" = None,
    ) -> None:
        super().__init__(cfg, config=config, telemetry=telemetry)
        value_words = cfg.value_bytes // units.WORD_BYTES
        #: Per-client lazy streams, seeded by *global* client id
        #: (``client_base + local``), so population slices of one seed
        #: generate disjoint, collision-free traffic.
        self.streams = [
            ClientStream(
                cfg.client_base + client,
                mix=cfg.mix,
                num_keys=cfg.num_keys,
                theta=cfg.theta,
                value_words=value_words,
                seed=cfg.seed,
            )
            for client in range(cfg.num_clients)
        ]
        self._cursor = [0] * cfg.num_clients
        self._due: List[Optional[int]] = [None] * cfg.num_clients
        self._done = [False] * cfg.num_clients
        self._gaps: List[Optional[ArrivalStream]] = [None] * cfg.num_clients
        self._horizon: Optional[int] = None
        self._served = False
        self._serve_end: Optional[Tuple[int, int, int, Dict[str, int]]] = None

    # --- client schedule ------------------------------------------------

    def _init_schedule(self) -> None:
        t0 = self.machine.now
        cfg = self.cfg
        if cfg.duration_cycles is not None:
            self._horizon = t0 + cfg.duration_cycles
        for client in range(cfg.num_clients):
            if cfg.duration_cycles is None and cfg.requests_per_client == 0:
                self._done[client] = True
                continue
            if cfg.mode == "open":
                gaps = ArrivalStream(
                    cfg.client_base + client,
                    mean_cycles=cfg.effective_arrival_cycles,
                    seed=cfg.seed,
                )
                self._gaps[client] = gaps
                self._set_due(client, t0 + gaps.gap(0))
            else:
                # Closed loop: stagger the first submissions so clients
                # never tie on the very first cycle.
                self._set_due(client, t0 + 1 + client)

    def _set_due(self, client: int, at: int) -> None:
        """Arm a client's next submission — or retire the client when
        that submission falls past the duration horizon (the straddled
        arrival is not admitted; the queue drains afterwards)."""
        if self._horizon is not None and at > self._horizon:
            self._done[client] = True
            self._due[client] = None
        else:
            self._due[client] = at

    def _client_done(self, client: int) -> bool:
        return self._done[client]

    def _advance_client(
        self, client: int, *, completed_at: "Optional[int]" = None
    ) -> None:
        """Move a client past its current request (admitted or shed).

        ``completed_at`` re-arms a closed-loop client from a response;
        ``None`` means the client is waiting (closed mode: its response
        is pending and :meth:`record` re-arms it)."""
        cfg = self.cfg
        prev_at = self._due[client]
        self._cursor[client] += 1
        if (
            cfg.duration_cycles is None
            and self._cursor[client] >= cfg.requests_per_client
        ):
            self._done[client] = True
            self._due[client] = None
        elif cfg.mode == "open":
            self._set_due(
                client, prev_at + self._gaps[client].gap(self._cursor[client])
            )
        elif completed_at is None:
            self._due[client] = None
        else:
            self._set_due(client, completed_at + cfg.think_cycles)

    # --- event loop -----------------------------------------------------

    def record(self, response: Response) -> None:
        super().record(response)
        client = response.client - self.cfg.client_base
        if self.cfg.mode == "closed" and not self._client_done(client):
            # The client was waiting on this response; it thinks next.
            if self._due[client] is None:
                self._set_due(
                    client, response.completed_at + self.cfg.think_cycles
                )

    def _admit_due(self) -> bool:
        """Admit (or shed) every due arrival, in (time, client) order."""
        progressed = False
        while True:
            due = sorted(
                (self._due[c], c)
                for c in range(self.cfg.num_clients)
                if self._due[c] is not None
                and self._due[c] <= self.machine.now
                and not self._client_done(c)
            )
            if not due:
                return progressed
            admitted_any = False
            for at, client in due:
                request = self.streams[client].request(self._cursor[client])
                if self.queue.has_room:
                    self.admit(request, at)
                    # In closed mode the client now waits for the
                    # response; record() re-arms it.
                    self._advance_client(client)
                    admitted_any = True
                    progressed = True
                elif self.cfg.admission.mode == "shed":
                    self.machine.stats.service_requests += 1
                    self.machine.stats.service_rejected += 1
                    self.reply(request, at, "shed")
                    self._advance_client(client, completed_at=self.machine.now)
                    progressed = True
                # mode == "block": the client stalls at the door; its
                # due time stays in the past and is retried next round.
            if not admitted_any:
                return progressed

    def _more_arrivals_possible(self) -> bool:
        return any(
            not self._client_done(c) for c in range(self.cfg.num_clients)
        )

    def _next_wakeup(self) -> Optional[int]:
        now = self.machine.now
        times = [
            at
            for c, at in enumerate(self._due)
            if at is not None and at > now and not self._client_done(c)
        ]
        deadline = self.deadline()
        if deadline is not None:
            times.append(deadline)
        return min(times) if times else None

    # --- lifecycle -------------------------------------------------------

    def serve(self) -> None:
        """Run the event loop until every client stream is answered.

        A :class:`~repro.common.errors.PowerFailure` propagates out with
        the service state intact for the crash harness: ``responses``
        holds every ack so far, ``rm.committed`` the acked-write oracle
        and ``inflight`` the (possibly partially durable) batch."""
        if self._served:
            raise RuntimeError("serve() already ran")
        self._served = True
        self._init_schedule()
        while True:
            progressed = self._admit_due()
            if self.pump():
                progressed = True
            if progressed:
                continue
            wakeup = self._next_wakeup()
            if wakeup is None:
                if self.queue.depth:
                    # Only writes can remain queued (ready reads always
                    # drain); force the final partial batch out.
                    self._flush()
                    continue
                break
            self.machine.now = wakeup
        self._serve_end = (
            self.machine.now,
            self.machine.stats.pm_bytes_written,
            self.profiler.phase_cycles.get("commit-persist", 0),
            dict(self.profiler.phase_cycles),
        )

    def result(self) -> ServiceResult:
        cfg = self.cfg
        if self._serve_end is not None:
            cycles, pm_bytes, commit_persist, phases = self._serve_end
        else:
            cycles = self.machine.now
            pm_bytes = self.machine.stats.pm_bytes_written
            commit_persist = self.profiler.phase_cycles.get("commit-persist", 0)
            phases = dict(self.profiler.phase_cycles)
        stats = self.machine.stats.copy()

        def hist(name: str) -> LogHistogram:
            return self.profiler.histograms.get(name, LogHistogram())

        return ServiceResult(
            workload=cfg.workload,
            scheme=cfg.scheme,
            mode=cfg.mode,
            num_clients=cfg.num_clients,
            requests_per_client=cfg.requests_per_client,
            batch_size=cfg.batch.batch_size,
            max_wait_cycles=cfg.batch.max_wait_cycles,
            max_depth=cfg.admission.max_depth,
            admission_mode=cfg.admission.mode,
            fairness=cfg.admission.fairness,
            theta=cfg.theta,
            num_keys=cfg.num_keys,
            value_bytes=cfg.value_bytes,
            seed=cfg.seed,
            requests=stats.service_requests,
            acked=stats.service_acked,
            shed=stats.service_rejected,
            reads=stats.service_reads,
            batches=stats.service_batches,
            committed_writes=self.committed_writes,
            cycles=cycles,
            pm_bytes=pm_bytes,
            commit_persist_cycles=commit_persist,
            phases=phases,
            latency=hist("req_latency"),
            batch_occupancy=hist("batch_occupancy"),
            queue_depth=hist("queue_depth"),
            responses=list(self.responses),
            stats=stats,
            duration_cycles=cfg.duration_cycles,
            client_base=cfg.client_base,
            lock_grants=0 if self.locks is None else self.locks.grants,
            lock_wounds=0 if self.locks is None else self.locks.wounds,
            lock_waits=0 if self.locks is None else self.locks.waits,
        )

    def run(self) -> ServiceResult:
        """serve + finish + result (the one-call front door)."""
        self.serve()
        self.finish()
        return self.result()


def run_service(
    cfg: ServiceConfig,
    *,
    config: SystemConfig = DEFAULT_CONFIG,
    telemetry: "Optional[TelemetryWindows]" = None,
) -> ServiceResult:
    """Build and run one :class:`TransactionService`."""
    return TransactionService(cfg, config=config, telemetry=telemetry).run()

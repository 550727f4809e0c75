"""The cross-shard 2PC family (``fuzz --twopc``).

Every cell is a (workload × scheme × shard count × fault flavour)
quadruple over a deterministic :class:`~repro.shard.deployment.
ShardedDeployment`, and every case crashes (or media-damages) one
identically seeded deployment, runs
:func:`~repro.shard.recovery.recover_deployment`, and judges **global
atomicity**:

* **crash cells** sweep two surfaces:

  - **protocol steps** — the coordinator's :class:`~repro.shard.twopc.
    StepTracker` cuts ``commit_global`` at every named step the clean
    run enumerated: before any prepare, after each participant's
    prepared seal, immediately before the decision persist, after the
    durable decision but before any participant applied, and after each
    participant's apply (the pool is stratified by step *family*, so a
    budget smaller than the step count still covers every family);
  - **persist points** — ``schedule_crash_after_persists`` on each
    labelled machine (``coord``, ``s0``, ``s1``, …) crashes that node
    mid-drain: participants die inside prepare-persist and group-commit
    drains, the coordinator inside its decision persist.

* **torn-decision cells** attack the durable protocol records
  themselves: every word-boundary cut of every protocol append
  (``prepare`` / ``prepared`` / ``decide-commit`` / ``decide-abort``)
  plus one seeded bit flip per append, injected through the node's
  :class:`~repro.faults.FaultModel` exactly as the media-fault family
  does, then judged by the kernel's media double judgement under
  ``salvage`` recovery.

The acceptance contract (module docstring of :mod:`repro.shard.
deployment`): every *acked* write durable on its home shard; the only
other legal per-shard image adds one whole in-flight group-commit
batch; the in-flight global transaction is all-or-nothing *across*
shards — resolved commit means its writes are durable on every
participant, presumed abort means they appear on none.
"""

from __future__ import annotations

import random
from contextlib import contextmanager
from dataclasses import dataclass, field
from types import SimpleNamespace
from typing import Dict, Iterator, List, Tuple

from repro.common.config import SystemConfig
from repro.common.errors import RecoveryError
from repro.faults.model import tear_points
from repro.fuzz.campaign import _STRESS, STRESS_CONFIG, _points
from repro.fuzz.invariants import InvariantViolation
from repro.fuzz.kernel import (
    REST,
    Family,
    Pool,
    Violation,
    accept,
    durable_image,
    judge_media,
    oracle_states,
    plan_fault,
    register,
    run_cell,
    structural,
)
from repro.mem.logregion import TWOPC_KINDS
from repro.shard.deployment import ShardedConfig, ShardedDeployment
from repro.shard.recovery import recover_deployment
from repro.shard.router import home_shard
from repro.shard.twopc import GTX_BASE

#: Fault flavours a cell can carry.
TWOPC_FAULTS = ("crash", "torn-decision")

#: Scheme grid: the FG baseline and the full design.
TWOPC_FUZZ_SCHEMES: Tuple[str, ...] = ("FG", "SLPMT")

#: Shard counts the default campaign sweeps (2 = the minimal protocol,
#: 3 = majorities and partial prepare sets exist).
TWOPC_FUZZ_SHARDS: Tuple[int, ...] = (2, 3)

#: Traffic for the campaign: txn-heavy so cross-shard 2PC dominates.
TWOPC_FUZZ_MIX: Dict[str, float] = {
    "put": 0.35,
    "get": 0.10,
    "scan": 0.05,
    "txn": 0.50,
}


@dataclass(frozen=True)
class TwoPCCell:
    """One (workload × scheme × shards × fault flavour) campaign cell."""

    workload: str
    scheme: str
    shards: int
    fault: str

    def __str__(self) -> str:
        return f"2pc/{self.workload}/{self.scheme}/s{self.shards}/{self.fault}"


#: The default grid: 8 cells — both schemes × both shard counts ×
#: both fault flavours over the hashtable (O(1) paths keep per-case
#: cost low enough for the exhaustive step sweeps).
DEFAULT_TWOPC_CELLS: Tuple[TwoPCCell, ...] = tuple(
    TwoPCCell("hashtable", scheme, shards, fault)
    for scheme in TWOPC_FUZZ_SCHEMES
    for shards in TWOPC_FUZZ_SHARDS
    for fault in TWOPC_FAULTS
)


@dataclass
class TwoPCCellReport:
    """Coverage and outcome summary for one 2PC cell."""

    cell: TwoPCCell
    num_requests: int
    step_points_total: int
    step_points_run: int
    persist_points_total: int
    persist_points_run: int
    fault_points_total: int
    fault_points_run: int
    exhaustive: bool
    #: Clean-run witnesses (determinism anchors for the report).
    acked: int
    xshard_commits: int
    cycles: int = 0
    pm_bytes: int = 0
    violations: List[Violation] = field(default_factory=list)

    @property
    def cases_run(self) -> int:
        return self.step_points_run + self.persist_points_run + self.fault_points_run


def step_family(name: str) -> str:
    """The protocol-step family of a step name (``prepared:g3:s1`` →
    ``prepared``) — the unit of stratified coverage."""
    return name.split(":", 1)[0]


def _build_twopc(
    cell: TwoPCCell,
    *,
    num_clients: int,
    requests_per_client: int,
    value_bytes: int,
    seed: int,
    config: SystemConfig,
) -> ShardedDeployment:
    """A fresh sharded deployment for one campaign case.

    Small key space with zipfian skew keeps multi-key transactions
    crossing shards; ``verify=False`` because the campaign applies its
    own two-state + global-atomicity judgement instead of the clean-run
    verify."""
    from repro.service.tm import GroupCommitPolicy

    return ShardedDeployment(
        ShardedConfig(
            num_shards=cell.shards,
            workload=cell.workload,
            scheme=cell.scheme,
            num_clients=num_clients,
            requests_per_client=requests_per_client,
            value_bytes=value_bytes,
            num_keys=24,
            theta=0.6,
            mix=dict(TWOPC_FUZZ_MIX),
            txn_keys=4,
            arrival_cycles=600,
            batch=GroupCommitPolicy(batch_size=4),
            seed=seed,
            verify=False,
        ),
        config=config,
    )


@contextmanager
def _on_shard(shard: int) -> Iterator[None]:
    """Name the shard in a violation raised inside."""
    try:
        yield
    except InvariantViolation as exc:
        raise InvariantViolation(exc.check, f"s{shard}: {exc.message}") from None


def _check_deployment(dep: ShardedDeployment, resolution) -> None:
    """Post-recovery acceptance: per-shard structure, placement and
    two-state oracles, then the explicit cross-shard atomicity check on
    the in-flight global transaction (see module docstring)."""
    durable: Dict[int, Tuple] = {}
    for node in dep.nodes:
        with _on_shard(node.shard_id):
            durable[node.shard_id] = durable_image(node.subject)

    # Placement: the router is the only write path, so every durable
    # key must live on its home shard.
    for shard, state in sorted(durable.items()):
        for key, _value in state:
            home = home_shard(key, dep.cfg.num_shards)
            if home != shard:
                raise InvariantViolation(
                    "placement",
                    f"key {key} durable on shard {shard} but homes to {home}",
                )

    # Per-shard two-state acceptance: the acked oracle, or the oracle
    # plus one whole in-flight group-commit batch (its commit marker
    # may have turned durable on the crashing drain).
    for node in dep.nodes:
        batch = None
        if dep.inflight_local is not None and dep.inflight_local[0] == node.shard_id:
            batch = dep.inflight_local[1]
        with _on_shard(node.shard_id):
            accept(durable[node.shard_id], oracle_states(node.rm.committed, batch))

    # Global atomicity of the in-flight global transaction: resolved
    # commit => its writes durable on *every* participant; presumed
    # abort => durable on *none* (beyond what the oracle already holds).
    if dep.inflight_gtx is not None:
        gtx, plan, _request = dep.inflight_gtx
        fate = resolution.fates.get(gtx, "abort")
        label = f"g{gtx - GTX_BASE}"
        if fate == "commit":
            missing = sorted(
                shard
                for shard, writes in plan.items()
                if any(
                    dict(durable[shard]).get(key) != tuple(value)
                    for key, value in writes
                )
            )
            if missing:
                raise InvariantViolation(
                    "atomicity",
                    f"{label} resolved commit but shard(s) {missing} "
                    "lack its writes",
                )
        else:
            for shard, writes in sorted(plan.items()):
                oracle = dep.nodes[shard].rm.committed
                leaked = sorted(
                    key
                    for key, value in writes
                    if dict(durable[shard]).get(key) == tuple(value)
                    and oracle.get(key) != tuple(value)
                )
                if leaked:
                    raise InvariantViolation(
                        "atomicity",
                        f"{label} presumed abort but shard {shard} durably "
                        f"holds its write(s) {leaked[:4]}",
                    )

    # Resolution sanity: the campaign never damages prepare records of
    # a *decided* transaction, so a commit over an unsealed stage means
    # the resolver mis-read the logs.
    if resolution.incomplete_stages:
        raise InvariantViolation(
            "resolution",
            f"commit resolved over unsealed stage(s) "
            f"{resolution.incomplete_stages[:4]}",
        )


def _finish_deployment(dep: ShardedDeployment) -> None:
    dep.finish()
    for node in dep.nodes:
        node.rm.sync_expected()
        node.subject.verify(durable=True)


class TwoPCFamily(Family):
    """Coordinator-step, per-node persist-point and decision-record
    fault cases over a sharded deployment."""

    name = "twopc"
    cell_type = TwoPCCell
    knobs = dict(num_clients=4, requests_per_client=12, value_bytes=32, config=STRESS_CONFIG)
    budget = 70
    shrink = "volume"
    title = "SLPMT cross-shard 2PC crash campaign"
    columns = (
        ("workload", 10, lambda c: c.cell.workload),
        ("scheme", 7, lambda c: c.cell.scheme),
        ("shards", 6, lambda c: c.cell.shards),
        ("fault", 13, lambda c: c.cell.fault),
        ("reqs", 5, lambda c: c.num_requests),
        ("step-pts", 10, lambda c: _points(
            c.step_points_run, c.step_points_total,
            c.exhaustive and c.cell.fault == "crash")),
        ("persist-pts", 12, lambda c: _points(c.persist_points_run, c.persist_points_total)),
        ("fault-pts", 10, lambda c: _points(
            c.fault_points_run, c.fault_points_total,
            c.exhaustive and c.cell.fault != "crash")),
        ("cases", 6, lambda c: c.cases_run),
        ("acked", 6, lambda c: c.acked),
        ("xcommits", 8, lambda c: c.xshard_commits),
        ("violations", 10, lambda c: len(c.violations)),
    )

    def seed_key(self, cell, seed):
        return f"2pc-cell:{seed}:{cell}"

    def build(self, cell, seed, knobs, *, clean=False):
        return _build_twopc(cell, seed=seed, **knobs)

    def gauge(self, dep):
        machines = dep.all_machines()
        return (
            {label: m.wpq.total_inserts for label, m in machines},
            {label: m.pm.log_appends for label, m in machines},
            sum(m.now for _, m in machines),
            sum(m.stats.pm_bytes_written for _, m in machines),
        )

    def arm(self, dep, kind, point):
        """``"step"`` cuts the coordinator at a protocol-step index,
        ``"persist:<node>"`` crashes machine ``coord`` / ``s0`` / … at a
        post-setup durability event, and ``"fault"`` carries media-fault
        coordinates ``{"node", "kind": "torn-tail" | "bit-flip", ...}``
        on that node's global append clock."""
        machines = dict(dep.all_machines())
        if kind == "fault":
            machines[point["node"]].pm.fault_model = plan_fault(point)
        elif kind == "step":
            dep.coordinator.steps.crash_at = point
        elif kind.startswith("persist:"):
            machines[kind.split(":", 1)[1]].schedule_crash_after_persists(point)
        else:
            raise ValueError(f"unknown crash kind {kind!r}")

    def execute(self, dep):
        dep.serve()

    def judge(self, dep, kind, point):
        dep.crash()
        if kind == "fault":
            node = point["node"]
            machine = dict(dep.all_machines())[node]
            machine.pm.fault_model = None

            def salvage():
                resolution = recover_deployment(dep, policy="salvage", from_bytes=True)
                return resolution, resolution.reports.get(node)

            resolution = judge_media(
                machine.pm, machine.scheme.logging_mode, point, salvage, node=node
            )
        else:
            try:
                resolution = recover_deployment(dep, policy="strict", from_bytes=False)
            except RecoveryError as exc:
                raise InvariantViolation(
                    "structure", f"deployment recovery failed: {exc}"
                ) from exc
        _check_deployment(dep, resolution)

    def settle(self, dep):
        for _, machine in dep.all_machines():
            machine.cancel_scheduled_crash()
            machine.pm.fault_model = None
        dep.coordinator.steps.crash_at = None
        with structural():
            _finish_deployment(dep)

    def outcome(self, dep):
        return len(dep.committed), dep.coordinator.committed_gtxs

    def measure(self, dep, start):
        events0, appends0, cycles0, pm0 = start
        machines = dep.all_machines()
        clean = SimpleNamespace(
            steps=list(dep.coordinator.steps.names),
            events={label: m.wpq.total_inserts - events0[label] for label, m in machines},
            protocol_appends=[
                (label, index, m.pm.log_extents[index].nwords)
                for label, m in machines
                for index in range(appends0[label], m.pm.log_appends)
                if m.pm.log_extents[index].entry.kind in TWOPC_KINDS
            ],
            result=dep.result(),
            cycles=sum(m.now for _, m in machines) - cycles0,
            pm_bytes=sum(m.stats.pm_bytes_written for _, m in machines) - pm0,
        )
        # Clean-run sanity: the deployment's own durability verify must
        # pass before any crash case of this cell is trusted.
        _finish_deployment(dep)
        return clean

    def crash_space(self, cell, seed, budget, knobs, clean):
        if cell.fault == "crash":
            steps = clean.steps
            return [
                Pool(
                    "step", range(len(steps)), take=max(1, budget // 2),
                    strata=lambda index: step_family(steps[index]),
                ),
                Pool(None, [
                    (f"persist:{label}", point)
                    for label, events in clean.events.items()
                    for point in range(events)
                ], take=REST),
            ]
        faults: List[Dict] = []
        for label, index, nwords in clean.protocol_appends:
            for _, cut in tear_points([nwords]):
                faults.append(
                    {"node": label, "kind": "torn-tail", "append": index, "cut": cut}
                )
            flip_rng = random.Random(f"2pc-flip:{seed}:{cell}:{label}:{index}")
            faults.append({
                "node": label,
                "kind": "bit-flip",
                "append": index,
                "word": flip_rng.randrange(nwords),
                "bit": flip_rng.randrange(64),
            })
        return [Pool("fault", faults, take=budget)]

    def report(self, cell, knobs, clean, pools, fired):
        run = {pool.kind: len(pool.chosen) for pool in pools}
        return TwoPCCellReport(
            cell=cell,
            num_requests=clean.result.requests,
            step_points_total=len(clean.steps),
            step_points_run=run.get("step", 0),
            persist_points_total=sum(clean.events.values()),
            persist_points_run=run.get(None, 0),
            fault_points_total=sum(p.total for p in pools if p.kind == "fault"),
            fault_points_run=run.get("fault", 0),
            exhaustive=all(pool.full for pool in pools),
            acked=clean.result.acked,
            xshard_commits=clean.result.xshard_commits,
            cycles=clean.cycles,
            pm_bytes=clean.pm_bytes,
        )

    def describe(self, result):
        knobs = result.knobs
        return [
            f"budget={result.budget} per cell, seed={result.seed}, "
            f"clients={knobs['num_clients']}x{knobs['requests_per_client']} "
            f"requests, value_bytes={knobs['value_bytes']}, " + _STRESS,
            "acceptance: acked => durable on every home shard; the in-flight "
            "global txn is all-or-nothing",
            "across shards (resolved commit => applied everywhere, presumed "
            "abort => applied nowhere)",
        ]

    def coverage(self, cells):
        torn = sum(
            1 for c in cells if c.cell.fault == "torn-decision" and c.fault_points_run
        )
        return f"{torn} attacking durable decision records"

    def freeze(self, cell, seed, knobs):
        return dict(
            policy="none",
            value_bytes=knobs["value_bytes"],
            ops=[],
            twopc={
                "shards": cell.shards,
                "num_clients": knobs["num_clients"],
                "requests_per_client": knobs["requests_per_client"],
                "seed": seed,
            },
        )

    def thaw(self, rep):
        fault = "torn-decision" if rep.fault is not None else "crash"
        cell = TwoPCCell(rep.workload, rep.scheme, rep.twopc["shards"], fault)
        return cell, rep.twopc["seed"], dict(
            num_clients=rep.twopc["num_clients"],
            requests_per_client=rep.twopc["requests_per_client"],
            value_bytes=rep.value_bytes,
        )


TWOPC = register(TwoPCFamily())

#: One 2PC cell's sweep: the kernel's, with a :class:`TwoPCCell`.
run_twopc_cell = run_cell

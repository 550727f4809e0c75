"""Post-crash resolution of in-doubt cross-shard transactions.

:func:`recover_deployment` runs ordinary local recovery
(:func:`repro.recovery.engine.recover`) on the coordinator and every
shard, then resolves each global transaction whose protocol records
survived any log:

* **any durable ``decide-commit``** (coordinator's or a participant's
  own copy) → the transaction *must* commit: every shard holding
  ``prepare`` records but no *applied* marker (a plain ``commit``
  marker at the global seq — see :meth:`~repro.shard.deployment.
  ShardNode.apply_staged`) re-applies the staged writes now, then seals
  itself with that marker, so resolution is idempotent across repeated
  crashes;
* **otherwise → presumed abort**: the staged writes never touched the
  structure (prepare records are inert to local replay), so dropping
  them *is* the abort — no compensation needed, and a coordinator that
  crashed before persisting any decision costs nothing.

At most one global transaction can be in doubt at a crash — the
coordinator runs one ``commit_global`` at a time and applies phase 2
before returning — but the resolution pass makes no use of that: it
resolves every unsealed global transaction it finds, in ascending gtx
order, so it is also correct for logs assembled by fault injection.

Local recovery has already replayed/rolled back every *local*
transaction (including a participant's interrupted phase-2 apply, whose
undo records are ordinary local log entries) before resolution starts,
so re-applies always run against structurally consistent shards.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import TYPE_CHECKING, Dict, List, Optional, Tuple

from repro.recovery.engine import RecoveryReport, recover
from repro.shard.twopc import GTX_BASE, PreparedWrite

if TYPE_CHECKING:
    from repro.shard.deployment import ShardedDeployment


@dataclass
class ResolutionReport:
    """What cross-shard resolution saw and did."""

    #: Per-node local recovery reports, keyed ``coord`` / ``s{i}``.
    reports: Dict[str, RecoveryReport] = field(default_factory=dict)
    #: Final fate of every global transaction with surviving protocol
    #: records: gtx -> ``commit`` | ``abort``.
    fates: Dict[int, str] = field(default_factory=dict)
    #: Global transactions that were genuinely in doubt (staged but not
    #: sealed somewhere) when resolution started.
    in_doubt: List[int] = field(default_factory=list)
    #: Shards re-applied per committed gtx: gtx -> [shard ids].
    reapplied: Dict[int, List[int]] = field(default_factory=dict)
    #: ``(gtx, shard)`` pairs where a commit decision survived but the
    #: shard's ``prepared`` seal did not (only media corruption of
    #: prepare records can produce this; the campaign asserts it stays
    #: empty when faults target decision records).
    incomplete_stages: List[Tuple[int, int]] = field(default_factory=list)


def recover_deployment(
    dep: "ShardedDeployment",
    *,
    policy: str = "strict",
    profiler: "Optional[object]" = None,
) -> ResolutionReport:
    """Recover every node of *dep* and resolve in-doubt global
    transactions from the durable decision records.

    Mutates the deployment in place: local recovery repairs each shard,
    then committed-but-unsealed global transactions re-apply (and seal)
    on the shards that missed phase 2.  Each node's local recovery
    picks its own log reader (:func:`~repro.recovery.engine.recover`):
    a node whose media took an injected fault is parsed from its bytes,
    every other node replays its live index.  Re-applied state is forced
    durable before returning.  *profiler* receives clock-free
    ``recovery.twopc_*`` counts (resolution runs outside any machine
    clock, matching local recovery's convention).

    A node's live index holds a global transaction's records only until
    that node forgot it (after its seal or ``decide-abort``; the
    coordinator after phase 2), so index recovery lists in ``fates``
    only global transactions some node has not forgotten.  A node
    parsed from its bytes also lists every forgotten one: a sealed one
    as ``commit``, an aborted one as ``abort``.  The data words,
    ``in_doubt``, ``reapplied`` and the in-flight transaction's fate are
    the same either way.
    """
    out = ResolutionReport()
    out.reports["coord"] = recover(
        dep.coordinator.machine.pm,
        mode=dep.coordinator.machine.scheme.logging_mode,
        hooks=[],
        policy=policy,
        profiler=profiler,
    )
    for node in dep.nodes:
        node.staged.clear()  # volatile; rebuilt from prepare records
        out.reports[f"s{node.shard_id}"] = recover(
            node.machine.pm,
            mode=node.machine.scheme.logging_mode,
            hooks=[node.subject],
            policy=policy,
            profiler=profiler,
        )

    # Collect the surviving protocol state from every log.
    decisions: Dict[int, str] = {}
    staged: Dict[int, Dict[int, List[PreparedWrite]]] = {}
    sealed_stages: Dict[int, set] = {}
    for node in dep.nodes:
        report = out.reports[f"s{node.shard_id}"]
        for entry in report.twopc_entries:
            if entry.tx_seq < GTX_BASE:
                continue
            if entry.kind == "prepare":
                staged.setdefault(entry.tx_seq, {}).setdefault(
                    node.shard_id, []
                ).append((entry.addr, entry.words))
            elif entry.kind == "prepared":
                sealed_stages.setdefault(entry.tx_seq, set()).add(
                    node.shard_id
                )
            elif entry.kind == "decide-abort":
                # Told to abort: the shard already dropped its stage.
                staged.get(entry.tx_seq, {}).pop(node.shard_id, None)
    for label in out.reports:
        for entry in out.reports[label].twopc_entries:
            if entry.tx_seq < GTX_BASE:
                continue
            if entry.kind == "decide-commit":
                decisions[entry.tx_seq] = "commit"
            elif entry.kind == "decide-abort":
                decisions.setdefault(entry.tx_seq, "abort")

    # Resolve, ascending: commit where a decision says so, presumed
    # abort everywhere else.
    all_gtxs = sorted(set(decisions) | set(staged) | set(sealed_stages))
    for gtx in all_gtxs:
        fate = decisions.get(gtx, "abort")
        out.fates[gtx] = fate
        pending = [
            shard
            for shard, writes in staged.get(gtx, {}).items()
            if writes
            and out.reports[f"s{shard}"].dispositions.get(gtx) != "committed"
        ]
        if pending:
            out.in_doubt.append(gtx)
        if fate != "commit":
            continue
        for shard in sorted(pending):
            if shard not in sealed_stages.get(gtx, set()):
                # Commit decided, but this shard's stage lost its seal
                # to media damage: surviving writes still re-apply (the
                # decision is authoritative), and the gap is reported.
                out.incomplete_stages.append((gtx, shard))
            node = dep.nodes[shard]
            node.apply_staged(gtx, staged[gtx][shard])
            out.reapplied.setdefault(gtx, []).append(shard)

    # A shard that applied and sealed *during the crashed commit_global*
    # can have lost the Python-side fold into its committed oracle (the
    # crash fired between the durable seal and the fold).  Only the
    # in-flight global transaction can be in that window — historical
    # ones folded long ago (and may have been legitimately overwritten
    # since, so they must not be re-folded).
    if dep.inflight_gtx is not None:
        gtx, plan, _request = dep.inflight_gtx
        if out.fates.get(gtx) == "commit":
            for shard, writes in plan.items():
                for key, value in writes:
                    dep.nodes[shard].rm.committed[key] = tuple(value)

    # Force every re-applied shard's state durable (same tail as a
    # normal run's finish()).
    for gtx, shards in out.reapplied.items():
        for shard in shards:
            node = dep.nodes[shard]
            node.rt.run_empty_transactions(node.machine.config.num_tx_ids)
            node.machine.fence()

    if profiler is not None:
        if out.in_doubt:
            profiler.count("recovery.twopc_in_doubt", len(out.in_doubt))
        commits = sum(1 for f in out.fates.values() if f == "commit")
        aborts = len(out.fates) - commits
        if commits:
            profiler.count("recovery.twopc_resolved_commit", commits)
        if aborts:
            profiler.count("recovery.twopc_resolved_abort", aborts)
        reapplies = sum(len(s) for s in out.reapplied.values())
        if reapplies:
            profiler.count("recovery.twopc_reapplied", reapplies)
    return out

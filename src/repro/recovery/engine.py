"""Post-crash recovery: hardened log replay plus application hooks.

Recovery after a power failure happens in two layers, mirroring the
paper's model:

1. **Log replay** (this module, hardware/kernel equivalent): for undo
   logging, every transaction that has log records but no commit marker
   was interrupted, so its undo records are applied in reverse to restore
   pre-transaction values.  For redo logging, transactions *with* a
   commit marker re-apply their records forward (their in-place data may
   not have fully persisted); uncommitted records are discarded.

2. **Application recovery** (Section IV): log-free data is repaired by
   user/compiler-generated code — a garbage collector reclaims objects
   allocated by interrupted transactions (Pattern 1), and lazily
   persistent data is rebuilt from other durable state (Pattern 2).
   Workloads register such code as :class:`RecoveryHook` objects.

Unlike the original engine, replay no longer trusts the media.  The log
stream is parsed *tolerantly* (torn tails and checksum-failing entries
are classified, not crashed on) and a **recovery policy** decides what
to do with damage:

* ``"strict"`` — refuse: raise :class:`~repro.common.errors.TornLogError`
  for a torn tail, :class:`~repro.common.errors.LogChecksumError` for a
  corrupt entry.  Nothing is mutated before the raise, so the caller can
  retry in salvage mode.
* ``"salvage"`` — continue: a torn tail is dropped (its append never
  became durable, so the data it guarded never left the cache either); a
  corrupt entry is quarantined — never applied — and its transaction is
  rolled back from its *surviving* records (undo) or excluded from
  replay (redo), with the whole disposition written into the report.

Ordering is hardened too: the log is cleared only **after** every
application hook succeeded, so a hook failure leaves the durable log
intact and ``recover()`` can simply be run again — recovery is
idempotent (``recover(); recover()`` ≡ ``recover()``), which the
property suite pins.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Dict, List, Optional, Protocol

from repro.common import units
from repro.common.errors import LogChecksumError, SimulationError, TornLogError
from repro.core.ordering import LoggingMode
from repro.mem.logregion import TWOPC_KINDS, DurableLogEntry, ParsedLog
from repro.mem.pm import PersistentMemory

#: Valid recovery policies.
POLICIES = ("strict", "salvage")


class PmView:
    """Word-level durable memory access handed to application recovery.

    Recovery code must only see what survived the crash, so it operates
    on the persistent backing store directly (never on caches, which are
    gone).
    """

    def __init__(self, pm: PersistentMemory) -> None:
        self._pm = pm

    def read(self, addr: int) -> int:
        return self._pm.read_word(addr)

    def write(self, addr: int, value: int) -> None:
        self._pm.write_word(addr, value)


class RecoveryHook(Protocol):
    """Application-level recovery callback (Pattern 1 / Pattern 2 code)."""

    def recover(self, view: PmView) -> None:
        """Repair log-free and rebuild lazily persistent data."""


@dataclass
class RecoveryReport:
    """What structural recovery did, and what damage it navigated."""

    mode: LoggingMode = LoggingMode.UNDO
    policy: str = "strict"
    rolled_back_tx_seqs: List[int] = field(default_factory=list)
    replayed_tx_seqs: List[int] = field(default_factory=list)
    words_restored: int = 0
    hooks_run: int = 0
    #: Damage accounting (salvage mode; strict raises instead).
    torn_entries: int = 0
    corrupt_entries: int = 0
    salvaged_tx_seqs: List[int] = field(default_factory=list)
    #: Final fate of every transaction seen in the log:
    #: ``committed`` / ``aborted`` (resolved by a marker),
    #: ``rolled-back`` (interrupted, clean rollback),
    #: ``replayed`` (redo, committed and re-applied),
    #: ``discarded`` (redo, uncommitted),
    #: ``salvaged-rolled-back`` / ``salvaged-partial`` (damage skipped),
    #: ``inert-damage`` (resolved transaction with corrupt — but inert —
    #: records).
    dispositions: Dict[int, str] = field(default_factory=dict)
    #: Surviving cross-shard 2PC protocol records (prepare/prepared/
    #: decide-commit/decide-abort), captured before the log is cleared.
    #: Local replay treats them as inert; :mod:`repro.shard.recovery`
    #: resolves in-doubt global transactions from them.
    twopc_entries: List[DurableLogEntry] = field(default_factory=list)

    @property
    def damaged(self) -> bool:
        return bool(self.torn_entries or self.corrupt_entries)


def recover(
    pm: PersistentMemory,
    *,
    mode: LoggingMode = LoggingMode.UNDO,
    hooks: "List[RecoveryHook] | None" = None,
    policy: str = "strict",
    profiler: "Optional[object]" = None,
) -> RecoveryReport:
    """Run full recovery on the durable state in *pm*.

    *profiler* (a :class:`repro.obs.profiler.CycleProfiler`) receives
    clock-free ``recovery.*`` event counts — post-crash recovery runs
    outside any machine clock, so its work is counted, not timed (the
    in-run abort replay *is* timed, in the machine's ``recovery``
    phase).  Passing one never changes what recovery does.

    Mutates *pm* in place (applying log records, then — only after every
    hook succeeded — clearing the whole log region, serialized stream
    and cursor included) and runs each application hook against a
    :class:`PmView`.

    The log comes from :meth:`~repro.mem.pm.PersistentMemory.parsed_log`:
    the live index on pristine media, else the serialized log region
    parsed word by word — what a real controller has after a crash, and
    the only reading that sees an injected fault.  On pristine media the
    two produce the same durable state (the equivalence is
    property-tested).
    """
    if policy not in POLICIES:
        raise SimulationError(f"unknown recovery policy {policy!r}")
    parsed: ParsedLog = pm.parsed_log()
    report = RecoveryReport(mode=mode, policy=policy)
    _classify_damage(parsed, report, policy)
    # Protocol records must outlive the log reset below: the cross-shard
    # resolution pass needs them after every local log is spent.
    report.twopc_entries = [
        e for e in parsed.entries if e.kind in TWOPC_KINDS
    ]
    quarantined = {
        d.tx_seq for d in parsed.damaged if d.tx_seq is not None
    }
    if parsed.torn_tail is not None and parsed.torn_tail.tx_seq is not None:
        quarantined.add(parsed.torn_tail.tx_seq)
    if mode is LoggingMode.UNDO:
        _recover_undo(pm, parsed.entries, report, quarantined)
    else:
        _recover_redo(pm, parsed.entries, report, quarantined)
    view = PmView(pm)
    for hook in hooks or []:
        hook.recover(view)
        report.hooks_run += 1
    # Only now that replay *and* every hook succeeded is the log spent;
    # clearing earlier would leave a half-recovered image behind a hook
    # failure, and a re-run would have nothing left to replay.
    pm.log_reset()
    if profiler is not None:
        profiler.count("recovery.passes")
        profiler.count("recovery.log_entries_scanned", len(parsed.entries))
        profiler.count("recovery.words_restored", report.words_restored)
        profiler.count("recovery.hooks_run", report.hooks_run)
        profiler.count(
            "recovery.rolled_back_txs", len(report.rolled_back_tx_seqs)
        )
        profiler.count("recovery.replayed_txs", len(report.replayed_tx_seqs))
        if report.twopc_entries:
            profiler.count("recovery.twopc_entries", len(report.twopc_entries))
        if report.damaged:
            profiler.count("recovery.torn_entries", report.torn_entries)
            profiler.count("recovery.corrupt_entries", report.corrupt_entries)
    return report


def _classify_damage(
    parsed: ParsedLog, report: RecoveryReport, policy: str
) -> None:
    """Count damage; raise the typed strict-mode errors before anything
    has been mutated."""
    if parsed.torn_tail is not None:
        if policy == "strict":
            raise TornLogError(
                f"torn log tail ({parsed.torn_tail})",
                offset=parsed.torn_tail.offset,
            )
        report.torn_entries += 1
    if parsed.damaged:
        if policy == "strict":
            first = parsed.damaged[0]
            raise LogChecksumError(
                f"corrupt log entry ({first})", offset=first.offset
            )
        report.corrupt_entries += len(parsed.damaged)


def _recover_undo(
    pm: PersistentMemory,
    entries: "List",
    report: RecoveryReport,
    quarantined: "set[int]",
) -> None:
    resolved = PersistentMemory.resolved_tx_seqs(entries)
    committed = {e.tx_seq for e in entries if e.kind == "commit"}
    # Walk the whole log backwards so that when duplicate records exist
    # for one word (possible after the L2 granularity round-trip), the
    # earliest record — the true pre-image — is applied last.
    interrupted: List[int] = []
    for entry in reversed(entries):
        if entry.kind != "undo" or entry.tx_seq in resolved:
            continue
        if entry.tx_seq not in interrupted:
            interrupted.append(entry.tx_seq)
        for i, word in enumerate(entry.words):
            pm.write_word(entry.addr + i * units.WORD_BYTES, word)
            report.words_restored += 1
    report.rolled_back_tx_seqs = sorted(interrupted)
    for tx_seq in resolved:
        report.dispositions[tx_seq] = (
            "committed" if tx_seq in committed else "aborted"
        )
    for tx_seq in interrupted:
        report.dispositions[tx_seq] = "rolled-back"
    _note_salvage(report, quarantined, resolved, set(interrupted), "rolled-back")


def _recover_redo(
    pm: PersistentMemory,
    entries: "List",
    report: RecoveryReport,
    quarantined: "set[int]",
) -> None:
    committed = {e.tx_seq for e in entries if e.kind == "commit"}
    replayed: List[int] = []
    # Forward order: a later record for the same word carries the newer
    # value and must win.
    for entry in entries:
        if entry.kind != "redo" or entry.tx_seq not in committed:
            continue
        if entry.tx_seq not in replayed:
            replayed.append(entry.tx_seq)
        for i, word in enumerate(entry.words):
            pm.write_word(entry.addr + i * units.WORD_BYTES, word)
            report.words_restored += 1
    report.replayed_tx_seqs = sorted(replayed)
    for entry in entries:
        if entry.kind != "redo" or entry.tx_seq in committed:
            continue
        report.dispositions.setdefault(entry.tx_seq, "discarded")
    for tx_seq in replayed:
        report.dispositions[tx_seq] = "replayed"
    _note_salvage(report, quarantined, committed, set(replayed), "replayed")


def _note_salvage(
    report: RecoveryReport,
    quarantined: "set[int]",
    resolved: "set[int]",
    applied: "set[int]",
    applied_action: str,
) -> None:
    """Record what happened to transactions whose records were damaged.

    A resolved transaction's damaged records were inert anyway; an
    unresolved one was handled from its *surviving* records only, which
    is the salvage the report must disclose.
    """
    for tx_seq in sorted(quarantined):
        if tx_seq in resolved and tx_seq not in applied:
            report.dispositions[tx_seq] = "inert-damage"
            continue
        if tx_seq in applied:
            report.dispositions[tx_seq] = f"salvaged-{applied_action}"
        else:
            report.dispositions.setdefault(tx_seq, "salvaged-rolled-back")
        report.salvaged_tx_seqs.append(tx_seq)
    report.salvaged_tx_seqs = sorted(set(report.salvaged_tx_seqs))

"""Multi-core SLPMT system: shared PM, private caches, conflict handling.

The paper scopes its transactions to atomic durability and notes the
concurrency machinery is the classic hardware-transactional-memory kind
(Sections II, V-B, V-D): conflicts are detected on coherence requests
and resolved by aborting a transaction.  This module supplies exactly
that substrate:

* N :class:`~repro.core.machine.Machine` cores share one
  :class:`~repro.mem.pm.PersistentMemory` (and one persistent heap);
  L1/L2/L3 stay private per core ("sliced" LLC), and a system-level
  MESI-style authority serialises cross-core line access;
* **conflict detection** — a peer write to a line in a running
  transaction's read or write set, or a peer read of a line in its
  write set, aborts the running transaction (requester wins); the
  victim's thread unwinds at its next checkpoint and typically retries
  via :func:`run_atomically`;
* **cross-core lazy persistency** — a peer write probes every core's
  committed-lazy signatures and a peer read of a committed-lazy line
  forces its whole transaction's deferred set, the multi-core form of
  Section III-C3;
* execution interleaves deterministically through
  :class:`~repro.multicore.scheduler.InterleavedScheduler`, so a seed
  fully reproduces a concurrency scenario, including its conflicts.

Timing note: each core keeps its own cycle counter; the interleaving is
functional (instruction-serialised), not a multi-core timing model —
the paper's evaluation is single-threaded and ours follows it.
"""

from __future__ import annotations

import itertools
from typing import Callable, List

from repro.alloc.allocator import PersistentAllocator
from repro.common.config import DEFAULT_CONFIG, SystemConfig
from repro.common.errors import TransactionAborted, TransactionError
from repro.core.machine import Machine
from repro.core.schemes import SLPMT, Scheme
from repro.mem.pm import PersistentMemory
from repro.multicore.scheduler import InterleavedScheduler
from repro.runtime.hints import MANUAL
from repro.runtime.ptx import PTx

#: Cycles of the first conflict-backoff wait (doubles per retry).
CONFLICT_BACKOFF_BASE = 8

#: Most scheduler turns one backoff wait will yield.
MAX_BACKOFF_TURNS = 8

#: A worker receives its core's transactional runtime.
Worker = Callable[[PTx], None]


class MultiCoreSystem:
    """N SLPMT cores over one persistent memory."""

    def __init__(
        self,
        num_cores: int,
        scheme: Scheme = SLPMT,
        config: SystemConfig = DEFAULT_CONFIG,
        *,
        seed: int = 0,
    ) -> None:
        self.pm = PersistentMemory()
        self.allocator = PersistentAllocator()
        self.scheduler = InterleavedScheduler(num_cores, seed=seed)
        self.conflicts = 0
        self.cores: List[Machine] = []
        self.runtimes: List[PTx] = []
        shared_stamps = itertools.count()
        for core_id in range(num_cores):
            machine = Machine(
                scheme,
                config,
                pm=self.pm,
                core_id=core_id,
                coherence=self,
                checkpoint=self._make_checkpoint(core_id),
            )
            machine.stamp_source = shared_stamps
            self.cores.append(machine)
            runtime = PTx(machine, self.allocator, policy=MANUAL)
            runtime.backoff_sink = self._make_backoff_sink(core_id)
            self.runtimes.append(runtime)

    # ------------------------------------------------------------------
    # scheduling glue
    # ------------------------------------------------------------------

    def _make_checkpoint(self, core_id: int) -> Callable[[], None]:
        def checkpoint() -> None:
            self.scheduler.checkpoint(core_id)
            machine = self.cores[core_id]
            if machine.aborted_by_conflict and not machine.in_transaction:
                # A peer rolled us back while we were waiting; unwind to
                # the transaction scope (PTx knows not to abort twice).
                raise TransactionAborted("aborted by a conflicting peer")

        return checkpoint

    def _make_backoff_sink(self, core_id: int) -> Callable[[int], None]:
        """Scheduler half of a retry backoff: a waiting core yields the
        turn (more turns the longer the wait, capped), so the older
        transaction it lost to can commit before the retry begins."""

        def sink(cycles: int) -> None:
            turns = min(
                MAX_BACKOFF_TURNS, max(1, cycles // CONFLICT_BACKOFF_BASE)
            )
            self.cores[core_id].stats.backoff_turns += turns
            self.scheduler.backoff(core_id, turns)

        return sink

    # ------------------------------------------------------------------
    # CoherenceListener
    # ------------------------------------------------------------------

    def _peers(self, core_id: int) -> List[Machine]:
        return [m for m in self.cores if m.core_id != core_id]

    def before_read(self, core_id: int, line_addr: int) -> None:
        requester = self.cores[core_id]
        for peer in self._peers(core_id):
            if peer.tx_conflicts_with_read(line_addr):
                self._resolve_conflict(requester, peer)
            peer.force_lazy_for_line(line_addr)
            if peer.has_copy(line_addr):
                peer.flush_line(line_addr)

    def before_write(self, core_id: int, line_addr: int) -> None:
        requester = self.cores[core_id]
        for peer in self._peers(core_id):
            if peer.tx_conflicts_with_write(line_addr):
                self._resolve_conflict(requester, peer)
            peer.service_peer_write(line_addr)

    def _resolve_conflict(self, requester: Machine, victim: Machine) -> None:
        """Wound-wait arbitration: the *older* transaction (smaller start
        stamp) wins.  The oldest running transaction can never be
        aborted, so the system is livelock-free — plain requester-wins
        starves a long transaction racing a stream of short ones.

        A younger requester aborts *itself*: its rollback happens here
        and the TransactionAborted unwinds its own stack into the retry
        loop (where it keeps yielding until the elder commits).  A
        non-transactional requester always wins (nothing to abort).
        """
        self.conflicts += 1
        requester.stats.conflicts += 1
        if requester.in_transaction and requester.tx_stamp > victim.tx_stamp:
            requester.abort_by_conflict()
            raise TransactionAborted("wound-wait: yielded to an older transaction")
        victim.abort_by_conflict()

    # ------------------------------------------------------------------
    # execution
    # ------------------------------------------------------------------

    def run(self, workers: "List[Worker]") -> None:
        """Run one worker per core under the deterministic interleaving."""
        if len(workers) != len(self.cores):
            raise TransactionError(
                f"need {len(self.cores)} workers, got {len(workers)}"
            )
        bodies = [
            (lambda rt=rt, body=body: body(rt))
            for rt, body in zip(self.runtimes, workers)
        ]
        self.scheduler.run(bodies)

    def fence_all(self) -> None:
        """Flush every core's deferred and dirty persistent state to PM
        (validation helper: makes the durable image reflect every
        committed update regardless of which core's cache holds it)."""
        for rt in self.runtimes:
            rt.run_empty_transactions(rt.machine.config.num_tx_ids)
        for core in self.cores:
            core.fence()

    def crash(self) -> None:
        """System-wide power failure: unwind every worker (if running)
        and drop all volatile state; the shared PM survives."""
        self.scheduler.crash_all()
        for core in self.cores:
            core.crash()

    # ------------------------------------------------------------------
    # observability
    # ------------------------------------------------------------------

    def attach_observability(self) -> None:
        """Give every core a tracer and a profiler (passive; idempotent).

        Each core records into its own 50,000-event ring and attribution
        buckets so nothing is shared across the interleaving;
        :meth:`merged_profiler` and :meth:`tracers` fold them back
        together for reporting and trace export.
        """
        from repro.obs import attach

        for core in self.cores:
            attach(core, capacity=50_000)

    def tracers(self) -> "List":
        """Per-core tracers in core order (for trace export)."""
        return [core.tracer for core in self.cores if core.tracer is not None]

    def merged_profiler(self):
        """One system-wide profiler: summed phases, merged histograms."""
        from repro.obs.profiler import CycleProfiler

        merged = CycleProfiler()
        for core in self.cores:
            if core.profiler is not None:
                merged.merge(core.profiler)
        return merged

    def finalize_all(self) -> None:
        """Run every core's end-of-run accounting (stats + profiler)."""
        for core in self.cores:
            core.finalize()

    def merged_stats(self):
        """Sum of every core's counters (one system-wide SimStats)."""
        from repro.common.stats import SimStats

        total = SimStats()
        for core in self.cores:
            total.add(core.stats)
        return total

    # ------------------------------------------------------------------
    # inspection
    # ------------------------------------------------------------------

    def total_aborts(self) -> int:
        return sum(core.stats.aborts for core in self.cores)

    def total_commits(self) -> int:
        return sum(core.stats.commits for core in self.cores)

    def durable_read(self, addr: int) -> int:
        return self.pm.read_word(addr)


def run_atomically(
    rt: PTx,
    body: Callable[[], None],
    *,
    max_attempts: "int | None" = None,
) -> int:
    """Run *body* in a transaction, retrying on conflict aborts with
    bounded, deterministic, cycle-accounted backoff.

    *max_attempts* is the total number of times the body may run, the
    first try included: the budget is ``max_attempts - 1`` retries (and
    therefore exactly that many backoff waits), and the
    :class:`~repro.common.errors.RetryExhausted` raised when every
    attempt aborted reports exactly *max_attempts* attempts.  The
    default budget is 256 attempts.

    The 1.x-era ``max_retries`` alias (same total-attempts meaning) was
    removed with schema_version 2 as its deprecation warning scheduled;
    passing it is now a :class:`TypeError` like any unknown keyword.

    Returns the number of aborted attempts before the commit.  Raises
    :class:`RetryExhausted` (a :class:`TransactionError` subtype, so
    legacy handlers keep working) when the attempt budget is exhausted.
    """
    if max_attempts is None:
        max_attempts = 256
    if max_attempts < 1:
        raise TransactionError(
            f"max_attempts must be at least 1, got {max_attempts}"
        )
    return rt.run_with_retries(
        body, retries=max_attempts - 1, backoff_base=CONFLICT_BACKOFF_BASE
    )

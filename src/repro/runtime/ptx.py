"""PTx — the programmer-facing persistent-transaction runtime.

PTx wraps a :class:`~repro.core.machine.Machine` and a
:class:`~repro.alloc.PersistentAllocator` behind the small API the
workload data structures are written against:

* ``with ptx.transaction(): ...`` delimits a durable transaction;
* :meth:`PTx.load` / :meth:`PTx.store` issue simulated word accesses;
* every store takes a :class:`~repro.runtime.hints.Hint`, and the active
  :class:`~repro.runtime.hints.AnnotationPolicy` decides whether the
  access becomes a plain ``store`` or a ``storeT`` with the Table-I flag
  combination for that hint;
* struct-field helpers (:meth:`PTx.read_field` / :meth:`PTx.write_field`)
  and bulk helpers (:meth:`PTx.write_words`) keep workload code close to
  the C it models.

The runtime executes eagerly against the machine (no program list is
materialised), so data-dependent control flow — tree rebalancing, hash
resizing — reads simulated memory mid-transaction exactly like the real
kernels do.
"""

from __future__ import annotations

from contextlib import contextmanager
from typing import Callable, Iterator, List, Optional, Sequence

from repro.alloc.allocator import PersistentAllocator
from repro.alloc.objects import StructLayout
from repro.common.errors import (
    PowerFailure,
    RetryExhausted,
    TransactionAborted,
)
from repro.core.machine import Machine
from repro.runtime.hints import NO_ANNOTATIONS, AnnotationPolicy, Hint

#: Cap on the exponential-backoff shift: the n-th wait lasts
#: ``base << min(n - 1, BACKOFF_SHIFT_CAP)`` cycles, so deep retry loops
#: grow linearly past the cap instead of overflowing the cycle budget.
BACKOFF_SHIFT_CAP = 10


class PTx:
    """Persistent transactional runtime bound to one machine."""

    def __init__(
        self,
        machine: Machine,
        allocator: "PersistentAllocator | None" = None,
        policy: AnnotationPolicy = NO_ANNOTATIONS,
    ) -> None:
        self.machine = machine
        self.allocator = allocator or PersistentAllocator()
        self.policy = policy
        #: Allocations made by the currently running transaction; a
        #: store into one of these regions is NEW_ALLOC by construction.
        self._tx_allocs: List[int] = []
        #: Frees requested by the running transaction.  They take effect
        #: at commit (PMDK semantics): releasing memory mid-transaction
        #: would let log-free stores clobber data that post-crash
        #: recovery may still need.
        self._tx_frees: List[int] = []
        #: Whether the most recent transaction scope ended in an abort
        #: (explicit or by a conflicting peer); retry loops read this.
        self.last_aborted = False
        #: Optional transaction-outcome observer (``committed()`` /
        #: ``aborted()``, e.g. :class:`repro.fuzz.oplog.OpLog`).  A crash
        #: reports nothing: the power failure propagates untouched and
        #: the observer's last committed mark is the recovery oracle.
        self.op_log = None
        #: Optional extra backoff behaviour, called with the wait's cycle
        #: count after it was accounted (a multi-core system installs a
        #: scheduler-yielding sink so the conflicting elder can finish).
        self.backoff_sink: Optional[Callable[[int], None]] = None

    # --- transactions --------------------------------------------------------

    @contextmanager
    def transaction(self) -> Iterator[None]:
        """Durable transaction scope.

        Raising :class:`TransactionAborted` inside the scope triggers a
        hardware abort (rollback); any other exception propagates after
        aborting, so the simulated state stays consistent.
        """
        self.machine.tx_begin()
        self._tx_allocs = []
        self._tx_frees = []
        self.last_aborted = False
        try:
            yield
        except TransactionAborted:
            if self.machine.aborted_by_conflict:
                # A peer already rolled the hardware state back
                # (multi-core conflict resolution); only the software
                # side remains to clean up.
                self.machine.aborted_by_conflict = False
            else:
                self.machine.tx_abort()
            self._rollback_allocs()
            self.last_aborted = True
            if self.op_log is not None:
                self.op_log.aborted()
        except PowerFailure:
            # A crash is not an abort: volatile state simply vanishes.
            # Let the failure propagate to the crash harness untouched.
            raise
        except BaseException:
            self.machine.tx_abort()
            self._rollback_allocs()
            raise
        else:
            self.machine.tx_end()
            for addr in self._tx_frees:
                self.allocator.free(addr)
            if self.op_log is not None:
                self.op_log.committed()
        finally:
            self._tx_allocs = []
            self._tx_frees = []

    def _rollback_allocs(self) -> None:
        """Release the aborted transaction's allocations."""
        for addr in self._tx_allocs:
            if self.allocator.is_live(addr):
                self.allocator.free(addr)

    def abort(self) -> None:
        """Abort the enclosing transaction."""
        raise TransactionAborted("transaction aborted by workload")

    # --- bounded retry with deterministic backoff ---------------------------

    def backoff(self, wait_index: int, base: int) -> int:
        """Perform the *wait_index*-th backoff wait (1-based).

        The wait is pure simulated time — ``base << min(index - 1,
        BACKOFF_SHIFT_CAP)`` cycles added to the machine clock and
        accounted in the stats — so replays are bit-identical.  Returns
        the cycles waited.
        """
        cycles = base << min(wait_index - 1, BACKOFF_SHIFT_CAP)
        self.machine.now += cycles
        self.machine.stats.backoff_waits += 1
        self.machine.stats.backoff_cycles += cycles
        if self.machine.profiler is not None:
            self.machine.profiler.reattribute(
                "backoff", cycles, self.machine.now
            )
        if self.backoff_sink is not None:
            self.backoff_sink(cycles)
        return cycles

    def run_with_retries(
        self,
        body: Callable[[], None],
        *,
        retries: int = 8,
        backoff_base: int = 64,
    ) -> int:
        """Run *body* in a transaction, retrying recoverable aborts.

        The budget is ``retries`` re-attempts after the first try; every
        retry is preceded by exactly one deterministic, cycle-accounted
        backoff wait (so a budget of N that never succeeds performs
        exactly N waits).  Returns the number of aborted attempts before
        the commit; raises :class:`RetryExhausted` once the budget is
        spent.  Crashes (:class:`PowerFailure`) are not retried — they
        propagate to the crash harness like everywhere else.
        """
        for attempt in range(retries + 1):
            if attempt:
                self.machine.stats.tx_retries += 1
                self.backoff(attempt, backoff_base)
            with self.transaction():
                body()
            if not self.last_aborted:
                return attempt
        raise RetryExhausted(
            f"transaction aborted {retries + 1} times "
            f"(budget of {retries} retries / backoff waits exhausted)"
        )

    # --- memory access -----------------------------------------------------------

    def load(self, addr: int) -> int:
        return self.machine.exec_load(addr)

    def store(self, addr: int, value: int, hint: Hint = Hint.NONE) -> None:
        lazy, log_free = self.policy.flags(hint)
        if lazy or log_free:
            self.machine.exec_storeT(addr, value, lazy, log_free)
        else:
            self.machine.exec_store(addr, value)

    def write_words(
        self, addr: int, values: Sequence[int], hint: Hint = Hint.NONE
    ) -> None:
        """Store a contiguous run of words (e.g. a value payload), one
        store per word, all with the same hint."""
        lazy, log_free = self.policy.flags(hint)
        machine = self.machine
        if lazy or log_free:
            for i, value in enumerate(values):
                machine.exec_storeT(addr + i * 8, value, lazy, log_free)
        else:
            for i, value in enumerate(values):
                machine.exec_store(addr + i * 8, value)

    def read_words(self, addr: int, count: int) -> List[int]:
        """Load a contiguous run of *count* words, one load per word."""
        return [self.machine.exec_load(addr + i * 8) for i in range(count)]

    # --- struct helpers -------------------------------------------------------------

    def read_field(self, struct: StructLayout, base: int, field: str) -> int:
        return self.load(struct.addr(base, field))

    def write_field(
        self,
        struct: StructLayout,
        base: int,
        field: str,
        value: int,
        hint: Hint = Hint.NONE,
    ) -> None:
        self.store(struct.addr(base, field), value, hint)

    # --- allocation ------------------------------------------------------------------

    def alloc(self, size: int, *, align: "int | None" = None) -> int:
        """Allocate persistent memory; tracked for NEW_ALLOC hinting."""
        addr = self.allocator.alloc(size, align=align)
        if self.machine.in_transaction:
            self._tx_allocs.append(addr)
        return addr

    def alloc_struct(self, struct: StructLayout, *, align: "int | None" = None) -> int:
        return self.alloc(struct.size, align=align)

    def free(self, addr: int) -> None:
        """Free persistent memory (deferred to commit inside a txn)."""
        if self.machine.in_transaction:
            self._tx_frees.append(addr)
        else:
            self.allocator.free(addr)

    def allocated_this_tx(self, addr: int) -> bool:
        """True when *addr* is inside a region allocated by this txn."""
        for base in self._tx_allocs:
            allocation = self.allocator._live.get(base)  # noqa: SLF001
            if allocation and allocation.addr <= addr < allocation.end:
                return True
        return False

    # --- utilities --------------------------------------------------------------------

    def durable_read(self, addr: int) -> int:
        """What PM holds for *addr* (the value a crash would preserve)."""
        return self.machine.durable_read(addr)

    def run_empty_transactions(self, count: int) -> None:
        """The paper's idiom for forcing lazily persistent data durable:
        cycling the transaction-ID pool persists everything deferred."""
        for _ in range(count):
            self.machine.tx_begin()
            self.machine.tx_end()

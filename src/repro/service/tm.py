"""Transaction manager: group commit over the durable structure.

A batch of write requests becomes **one** machine transaction: every
request's inserts run inside a single scope, so the commit sequence —
the Figure-4 ordered drain ending in the sync commit marker — is paid
once per batch instead of once per request.  Three amortisation effects
follow directly from the commit path:

* one commit-marker line (a sync WPQ insert) per batch, not per request;
* undo records from all batched requests pack back-to-back into shared
  log lines before the drain;
* same-line stores across batched requests (structure headers, adjacent
  slots) coalesce into one logged line.

``tx_end`` returns only after the commit marker is durable, so a batch
acknowledgement *is* a durability guarantee for every request in it —
the server records the acks immediately after :meth:`commit_batch`
returns, with no simulated work in between, which is what makes
"ack ⇒ durable" crash-provable at every persist point.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import List, Sequence

from repro.runtime.ptx import PTx

from repro.service.model import Request
from repro.service.rm import ResourceManager


@dataclass(frozen=True)
class GroupCommitPolicy:
    """When the server drains the write queue into one transaction.

    A batch is flushed when *batch_size* eligible writes are queued, or
    when the oldest queued write has waited *max_wait_cycles*, or when
    no further arrivals can ever fill the batch.
    """

    batch_size: int = 8
    max_wait_cycles: int = 4000

    def __post_init__(self) -> None:
        if self.batch_size < 1:
            raise ValueError("batch_size must be at least 1")
        if self.max_wait_cycles < 0:
            raise ValueError("max_wait_cycles must be non-negative")


#: Attempts (first try included) a batch transaction, or a shard's
#: phase-2 apply, gets before :class:`~repro.common.errors.RetryExhausted`.
BATCH_ATTEMPTS = 64


class TransactionManager:
    """Executes write batches as single durable transactions, each
    retried up to :data:`BATCH_ATTEMPTS` times on conflict aborts."""

    def __init__(self, rt: PTx, rm: ResourceManager) -> None:
        self.rt = rt
        self.rm = rm

    def commit_batch(self, batch: Sequence[Request]) -> None:
        """Run *batch* in one transaction (via ``run_atomically``) and
        fold it into the committed oracle.

        On return the batch's commit marker is durable.  A power
        failure propagates out with the oracle untouched — the whole
        batch is then in flight, and recovery must surface either none
        of it or all of it (the group-commit campaign's acceptance
        states).
        """
        from repro.multicore.system import run_atomically

        requests: List[Request] = list(batch)
        if not requests:
            return

        def body() -> None:
            for request in requests:
                self.rm.apply_write(request)

        run_atomically(self.rt, body, max_attempts=BATCH_ATTEMPTS)
        for request in requests:
            self.rm.commit_write(request)

"""Admission control and the bounded request queue.

The queue is the service's backpressure point: a fixed total depth over
per-client FIFO order.  When it is full the policy either **sheds** (the
request is answered ``"shed"`` immediately) or **blocks** (the client
stalls at the door until a slot frees — open-loop arrivals queue up
behind their own earlier requests, closed-loop clients simply wait).

Selection out of the queue preserves per-client FIFO by construction:

* a *ready read* is a read that is the earliest queued request of its
  client — it may be served immediately, ahead of other clients'
  writes, but never ahead of its own client's earlier write;
* a write is *eligible* for a batch when every earlier queued request
  of its client is already selected into the same batch (reads block
  their client's later writes until served).

``fifo`` fairness fills a batch in global admission order;
``round-robin`` takes one eligible write per client per turn, cycling
through a **persistent rotation** (clients in first-admission order,
resuming after the last client served by the previous batch) — a heavy
writer cannot monopolise a batch ahead of light writers, and a client
whose head is a ready read keeps its rotation slot: it is passed over
for this batch without letting later clients jump ahead of it in the
cycle.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Dict, List, Optional

from repro.service.model import Request

#: Admission modes.
MODES = ("shed", "block")

#: Batch-fill fairness disciplines.
FAIRNESS = ("fifo", "round-robin")


@dataclass(frozen=True)
class AdmissionPolicy:
    """Bounded-queue policy: depth, full-queue behaviour, fairness."""

    max_depth: int = 64
    mode: str = "shed"
    fairness: str = "fifo"

    def __post_init__(self) -> None:
        if self.max_depth < 1:
            raise ValueError("max_depth must be at least 1")
        if self.mode not in MODES:
            raise ValueError(f"mode must be one of {MODES}, got {self.mode!r}")
        if self.fairness not in FAIRNESS:
            raise ValueError(
                f"fairness must be one of {FAIRNESS}, got {self.fairness!r}"
            )


@dataclass
class QueuedRequest:
    """A request inside the queue, with its timing provenance."""

    request: Request
    #: When the client submitted it (latency baseline; for a blocked
    #: admission this predates ``admitted_at``).
    submitted_at: int
    #: When it entered the bounded queue.
    admitted_at: int


class AdmissionQueue:
    """The bounded queue, in global admission order."""

    def __init__(self, policy: AdmissionPolicy) -> None:
        self.policy = policy
        self._items: List[QueuedRequest] = []
        #: Round-robin rotation: clients in first-admission order.  The
        #: rotation is persistent across batches — a client is never
        #: dropped, and :meth:`take_batch` advances the cursor past the
        #: last client served, so a client skipped this batch (head is a
        #: ready read, or nothing queued) keeps its place in the cycle.
        self._rotation: List[int] = []
        self._rotation_cursor = 0
        #: Reads in :attr:`_items`, so a pump with none queued skips the
        #: ready-read scan (:meth:`take_batch` removes only writes).
        self._reads = 0

    # --- admission ------------------------------------------------------

    @property
    def depth(self) -> int:
        return len(self._items)

    @property
    def has_room(self) -> bool:
        return len(self._items) < self.policy.max_depth

    def admit(self, item: QueuedRequest) -> None:
        if not self.has_room:
            raise OverflowError("admission queue is full")
        client = item.request.client
        if client not in self._rotation:
            self._rotation.append(client)
        self._items.append(item)
        if not item.request.is_write:
            self._reads += 1

    def readmit_front(self, items: List[QueuedRequest]) -> None:
        """Put lock-deferred requests back at the queue front, in the
        given order, with their original timing provenance — they lead
        the next batch and only get older (wound-wait livelock
        freedom)."""
        self._items[0:0] = list(items)
        self._reads += sum(1 for item in items if not item.request.is_write)

    # --- reads ----------------------------------------------------------

    def pop_ready_reads(self) -> List[QueuedRequest]:
        """Remove and return every *ready read*, in admission order.

        Loops to a fixpoint: serving a client's head read can expose its
        next read.  The returned order is deterministic (admission
        order per pass).
        """
        out: List[QueuedRequest] = []
        while self._reads:
            heads: Dict[int, int] = {}
            for idx, item in enumerate(self._items):
                heads.setdefault(item.request.client, idx)
            ready = [
                idx
                for client, idx in heads.items()
                if not self._items[idx].request.is_write
            ]
            if not ready:
                break
            for idx in sorted(ready, reverse=True):
                out_item = self._items.pop(idx)
                out.append(out_item)
            self._reads -= len(ready)
            # Re-sort this pass's pops back into admission order.
            out.sort(key=lambda item: (item.admitted_at, item.request.client,
                                       item.request.seq))
        return out

    # --- batch selection -------------------------------------------------

    def eligible_writes(self, limit: int) -> int:
        """How many writes could go into a batch right now, counting at
        most *limit* of them."""
        return len(self._select(limit=limit))

    def _select(self, *, limit: int) -> List[int]:
        """Indices of up to *limit* batch-eligible writes, per policy."""
        if self.policy.fairness == "fifo":
            picked: List[int] = []
            blocked: set = set()
            for idx, item in enumerate(self._items):
                client = item.request.client
                if client in blocked:
                    continue
                if not item.request.is_write:
                    blocked.add(client)
                    continue
                picked.append(idx)
                if len(picked) >= limit:
                    break
            return picked
        # round-robin: per-client runs of leading writes, one per turn,
        # cycling the persistent rotation from the cursor.  A client
        # with no eligible run this batch (head is a ready read, or
        # nothing queued) is passed over *in place* — it keeps its
        # rotation slot instead of ceding it to later clients.
        runs: Dict[int, List[int]] = {}
        blocked = set()
        for idx, item in enumerate(self._items):
            client = item.request.client
            if client in blocked:
                continue
            if not item.request.is_write:
                blocked.add(client)
                continue
            runs.setdefault(client, []).append(idx)
        n = len(self._rotation)
        start = self._rotation_cursor % n if n else 0
        order = [
            client
            for client in self._rotation[start:] + self._rotation[:start]
            if client in runs
        ]
        picked = []
        turn = 0
        while len(picked) < limit:
            took = False
            for client in order:
                if turn < len(runs[client]):
                    picked.append(runs[client][turn])
                    took = True
                    if len(picked) >= limit:
                        break
            if not took:
                break
            turn += 1
        return picked

    def take_batch(self, limit: int) -> List[QueuedRequest]:
        """Remove and return up to *limit* batch-eligible writes.

        The returned list is in selection order; within one client it is
        always that client's FIFO order (both disciplines take each
        client's run front-to-back).  Under round-robin this also
        advances the rotation cursor past the last client served, so the
        next batch resumes the cycle rather than restarting it.
        """
        picked = self._select(limit=limit)
        batch = [self._items[idx] for idx in picked]
        if batch and self.policy.fairness == "round-robin":
            last_client = batch[-1].request.client
            self._rotation_cursor = (
                self._rotation.index(last_client) + 1
            ) % len(self._rotation)
        for idx in sorted(picked, reverse=True):
            self._items.pop(idx)
        return batch

    def oldest_write_admitted_at(self) -> Optional[int]:
        """Admission time of the oldest queued write (flush deadline)."""
        oldest: Optional[int] = None
        for item in self._items:
            if item.request.is_write and (oldest is None or item.admitted_at < oldest):
                oldest = item.admitted_at
        return oldest

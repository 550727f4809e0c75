"""Resource manager: one durable structure behind the service.

The RM is the only component that touches simulated memory.  It applies
writes *inside* an already-open transaction (the TM owns the scope),
serves reads against the architectural state, and maintains the
committed oracle — the Python-dict model of what the structure must
contain, updated only after the enclosing transaction's commit.

Single-core visibility argument (why reads need no transaction): the
batch transaction is closed whenever the event loop serves a read, so
the architectural state holds exactly the committed image — including
committed-but-lazy lines, which are architecturally visible by design.
Reads therefore see precisely the oracle, and every read is checked
against it (:class:`ReadConsistencyError`).
"""

from __future__ import annotations

from typing import Dict, List, Tuple

from repro.workloads.base import Workload

from repro.service.model import Request


class ReadConsistencyError(AssertionError):
    """A service read diverged from the committed oracle."""


class ResourceManager:
    """Typed-op adapter over one :class:`~repro.workloads.base.Workload`."""

    def __init__(self, subject: Workload) -> None:
        self.subject = subject
        #: Committed oracle: key -> value tuple, updated at group commit.
        self.committed: Dict[int, Tuple[int, ...]] = {}

    def structures_of(self, request: Request) -> Tuple[str, ...]:
        """Named structures a write request locks (canonical set; the
        lock manager sorts before acquiring).  Single-structure
        workloads expose one name, ``"main"``."""
        return getattr(self.subject, "lock_structures", ("main",))

    # --- writes (inside the TM's open transaction) ---------------------

    def apply_write(self, request: Request) -> None:
        """Apply one write request's inserts inside the open batch
        transaction.  Same-key writes within a batch coalesce in batch
        order (last writer wins), matching the oracle update."""
        for key, value in zip(request.keys, request.values):
            self.subject._insert(key, list(value))

    def commit_write(self, request: Request) -> None:
        """Fold a committed write into the oracle (after ``tx_end``)."""
        for key, value in zip(request.keys, request.values):
            self.committed[key] = tuple(value)

    # --- reads (simulated, non-transactional) --------------------------

    def read_get(self, request: Request) -> Tuple:
        """Serve a ``get``: the traversal and value fetch issue real
        simulated loads (cache behaviour and latency included)."""
        key = request.keys[0]
        got = self.subject.get(key)
        want = self.committed.get(key)
        if (None if got is None else tuple(got)) != want:
            raise ReadConsistencyError(
                f"get({key}) returned "
                f"{None if got is None else tuple(got[:2])}, oracle has "
                f"{None if want is None else want[:2]}"
            )
        return () if got is None else (tuple(got),)

    def read_scan(self, request: Request) -> Tuple:
        """Serve a ``scan``: one full simulated traversal to collect the
        key set, then up to ``scan_count`` point lookups from
        ``keys[0]`` upward."""
        start = request.keys[0]
        keys = sorted(set(self.subject.iter_keys(self.subject.rt.load)))
        if set(keys) != set(self.committed):
            raise ReadConsistencyError(
                f"scan traversal saw {len(keys)} keys, oracle has "
                f"{len(self.committed)}"
            )
        out: List[Tuple[int, Tuple[int, ...]]] = []
        for key in keys:
            if key < start:
                continue
            if len(out) >= request.scan_count:
                break
            value = self.subject.get(key)
            out.append((key, () if value is None else tuple(value)))
        return tuple(out)

    # --- validation -----------------------------------------------------

    def sync_expected(self) -> None:
        """Point the workload's own oracle at the committed state, so
        ``subject.verify()`` checks service semantics."""
        self.subject.expected = {
            key: list(value) for key, value in self.committed.items()
        }


class MultiStructResourceManager(ResourceManager):
    """The resource manager of a composite workload: one map insert,
    queue push and counter bump per key, committed together by the
    enclosing batch transaction.

    Beside the key→value oracle it keeps the committed queue order, one
    entry per committed insert event (keys may repeat).  The service
    crash campaign holds the durable queue chain and event counter to
    it: the acked order, or that plus the whole in-flight batch.
    """

    def __init__(self, subject: Workload) -> None:
        super().__init__(subject)
        #: Committed queue order: every committed insert event's key.
        self.queue_order: List[int] = []

    def commit_write(self, request: Request) -> None:
        super().commit_write(request)
        self.queue_order.extend(request.keys)


def make_resource_manager(subject: Workload) -> ResourceManager:
    """The RM matching the workload: the composite RM when the subject
    names more than one lock structure."""
    if len(getattr(subject, "lock_structures", ("main",))) > 1:
        return MultiStructResourceManager(subject)
    return ResourceManager(subject)

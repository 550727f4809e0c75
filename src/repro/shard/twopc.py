"""Presumed-abort two-phase commit over PM log regions.

The coordinator and every participant persist their protocol state as
v1 log records (:mod:`repro.mem.logregion` tags 5–8) in their *own* PM
log region, exactly the role undo/redo records play for local
transactions:

* **prepare** (participant): one record per staged write — addr is the
  key, the payload the value words — followed by a **prepared** marker,
  all made durable in one synchronous drain (phase ``prepare-persist``);
* **decide-commit / decide-abort** (coordinator, then each participant
  in phase 2): the durable decision — addr is the deciding node's id,
  the payload the participant shard ids (phase ``decide-persist``);
* a plain **commit** marker carrying the global tx_seq seals a
  participant's phase-2 apply, so recovery can tell an applied shard
  from an in-doubt one.

Presumed abort: a global transaction with *no* durable decision record
anywhere is aborted by recovery — the coordinator therefore only needs
to persist a decision before phase 2 (commit) or when giving up on an
unresponsive participant (abort); the no-progress crash costs nothing.

Global transaction sequence numbers live at :data:`GTX_BASE` — far
above every per-core local sequence (``core_id * 10**12 + n``) and
comfortably inside the wire format's 52-bit field — so protocol records
can never collide with local transactions in any log.

Crash instrumentation: every protocol step reports to a
:class:`StepTracker`, and the fuzz campaign arms ``crash_at`` to cut
the protocol at each step — before prepare, after each participant
prepared, before the decision persist, and after the decision but
before any acknowledgement.
"""

from __future__ import annotations

from array import array
from typing import Dict, List, Optional, Sequence, Tuple

from repro.common.config import DEFAULT_CONFIG, SystemConfig
from repro.common.errors import PowerFailure, SimulationError
from repro.core.machine import Machine
from repro.core.schemes import Scheme, scheme_by_name
from repro.mem.logregion import DurableLogEntry
from repro.obs.profiler import CycleProfiler

#: Base of the global (cross-shard) transaction sequence namespace.
#: Fits the 52-bit wire field and clears every per-core local range.
GTX_BASE = 1 << 48

#: Times the coordinator asks an unresponsive participant to prepare
#: before it decides abort, and the coordinator-clock cycles it waits
#: after each unanswered request (the timeout model).
PREPARE_ATTEMPTS = 3
RETRY_WAIT_CYCLES = 500

#: A staged write: (key, value words).
PreparedWrite = Tuple[int, Tuple[int, ...]]

#: The protocol-step families; :class:`StepTracker` records a step as
#: its family's index here.
STEP_FAMILIES = (
    "pre-prepare", "prepared", "prepare-failed", "pre-decision",
    "post-decision", "applied",
)
PRE_PREPARE, PREPARED, PREPARE_FAILED, PRE_DECISION, POST_DECISION, APPLIED = (
    range(len(STEP_FAMILIES))
)


def step_name(family: int, gtx: int, shard: Optional[int] = None) -> str:
    """A step's name: ``prepared:g3:s1`` is shard 1's prepared step of
    global transaction 3."""
    name = f"{STEP_FAMILIES[family]}:g{gtx - GTX_BASE}"
    return name if shard is None else f"{name}:s{shard}"


class ShardUnavailable(SimulationError):
    """A participant did not answer a prepare request (test hook for
    the bounded-retry path; real shards in this simulator are in
    process and never silently vanish)."""


class StepTracker:
    """Deterministic protocol-step clock with an armed crash point.

    Every step the protocol passes appends its family's byte (an index
    into :data:`STEP_FAMILIES`) to :attr:`families`; when
    :attr:`crash_at` equals the step's index, the tracker raises
    :class:`~repro.common.errors.PowerFailure` *at* that step, named by
    :func:`step_name`.  A dry run with ``crash_at=None`` therefore
    enumerates the exact crash points a campaign can sweep, one byte
    each.
    """

    def __init__(self) -> None:
        self.families = array("B")
        self.crash_at: Optional[int] = None
        #: A recording pass's capture probe: with one armed, reaching
        #: :attr:`crash_at` calls ``probe.hit()`` (which captures the
        #: crash image and returns the next step index, or None) instead
        #: of crashing.
        self.probe = None

    def hit(self, family: int, gtx: int, shard: Optional[int] = None) -> None:
        index = len(self.families)
        self.families.append(family)
        if self.crash_at is not None and index == self.crash_at:
            if self.probe is None:
                raise PowerFailure(
                    f"2pc step crash at #{index} ({step_name(family, gtx, shard)})"
                )
            self.crash_at = self.probe.hit()


class Coordinator:
    """The transaction coordinator: one machine, one durable log.

    The coordinator owns a dedicated :class:`~repro.core.machine.
    Machine` whose PM log region holds only protocol records, so its
    decision persists pay real WPQ drains, show up as ``decide-persist``
    spans, and are reachable by the same crash/fault injection as any
    shard's log.  A participant that stays unresponsive through
    :data:`PREPARE_ATTEMPTS` prepare requests aborts the transaction.

    The coordinator forgets a global transaction last: at the end of
    :meth:`commit_global`, once every participant applied and sealed
    (or every prepared one persisted ``decide-abort``), its decision
    record leaves the PM live index and stays only as serialized words.
    A crash anywhere inside phase 2 therefore still finds the decision.
    """

    def __init__(
        self,
        num_shards: int,
        scheme: "Scheme | str",
        config: SystemConfig = DEFAULT_CONFIG,
        *,
        telemetry=None,
    ) -> None:
        if isinstance(scheme, str):
            scheme = scheme_by_name(scheme)
        #: Node id: shards are 0..N-1, the coordinator is N.
        self.node_id = num_shards
        #: Windowed metrics sink for ``decisions`` / ``decide_latency``
        #: (measured entirely on the coordinator clock).
        self.telemetry = telemetry
        self.machine = Machine(scheme, config, core_id=self.node_id)
        self.profiler = CycleProfiler()
        self.profiler.bind(self.machine.now)
        self.machine.profiler = self.profiler
        self.steps = StepTracker()
        self.committed_gtxs = 0
        self.aborted_gtxs = 0
        self.prepare_retries = 0
        self._next_gtx = GTX_BASE + 1

    def new_gtx(self) -> int:
        gtx = self._next_gtx
        self._next_gtx += 1
        return gtx

    # --- durable protocol state ----------------------------------------

    def persist_decision(
        self, gtx: int, kind: str, shard_ids: Sequence[int], *,
        step: str = "pre-decision",
    ) -> None:
        """Write the durable decision record for *gtx* to the
        coordinator's own log (one synchronous ``decide-persist``).

        The machine-tracer span is labelled with the gtx id and its
        2PC *step* family rather than an anonymous persist."""
        self.machine.persist_protocol_entries(
            [
                DurableLogEntry(
                    kind=kind,
                    tx_seq=gtx,
                    addr=self.node_id,
                    words=tuple(shard_ids),
                )
            ],
            phase="decide-persist",
            label={"gtx": gtx - GTX_BASE, "step": step},
        )

    # --- the protocol ---------------------------------------------------

    def commit_global(
        self,
        gtx: int,
        plan: "Dict[int, List[PreparedWrite]]",
        participants: "Dict[int, object]",
    ) -> str:
        """Run one global transaction to a durable decision.

        *plan* maps shard id → staged writes; *participants* maps shard
        id → the shard node (anything with ``prepare``/``commit``/
        ``abort``).  Returns ``"commit"`` or ``"abort"``.  On commit,
        every participant has applied and sealed its part before this
        returns — the caller's acknowledgement is covered by durable
        state on all shards.
        """
        shard_ids = sorted(plan)
        if len(shard_ids) > 8:
            raise SimulationError(
                "a decision record holds at most 8 participant ids"
            )
        started_at = self.machine.now
        self.steps.hit(PRE_PREPARE, gtx)
        prepared: List[int] = []
        for shard in shard_ids:
            if not self._prepare_with_retry(
                participants[shard], gtx, plan[shard]
            ):
                # Unresponsive participant: durable abort, then tell
                # everyone who already prepared (presumed abort makes
                # the record optional, but persisting it lets recovery
                # resolve without re-contacting anyone).
                self.steps.hit(PREPARE_FAILED, gtx, shard)
                self.persist_decision(
                    gtx, "decide-abort", shard_ids, step="prepare-failed"
                )
                self._count_decision(started_at)
                for done in prepared:
                    participants[done].abort(gtx, shard_ids)
                self.aborted_gtxs += 1
                self.machine.pm.log_discard_tx(gtx)
                return "abort"
            prepared.append(shard)
            self.steps.hit(PREPARED, gtx, shard)
        self.steps.hit(PRE_DECISION, gtx)
        self.persist_decision(gtx, "decide-commit", shard_ids)
        self._count_decision(started_at)
        self.steps.hit(POST_DECISION, gtx)
        for shard in shard_ids:
            participants[shard].commit(gtx, shard_ids)
            self.steps.hit(APPLIED, gtx, shard)
        self.committed_gtxs += 1
        self.machine.pm.log_discard_tx(gtx)
        return "commit"

    def _count_decision(self, started_at: int) -> None:
        """Windowed 2PC decision accounting (coordinator clock only)."""
        if self.telemetry is None:
            return
        now = self.machine.now
        self.telemetry.count(now, "decisions")
        self.telemetry.record(now, "decide_latency", now - started_at)

    def _prepare_with_retry(
        self, participant, gtx: int, writes: "List[PreparedWrite]"
    ) -> bool:
        """Prepare one participant, asking up to :data:`PREPARE_ATTEMPTS`
        times; each unanswered request waits :data:`RETRY_WAIT_CYCLES`
        on the coordinator clock."""
        for _ in range(PREPARE_ATTEMPTS):
            try:
                participant.prepare(gtx, writes)
                return True
            except ShardUnavailable:
                self.prepare_retries += 1
                self.machine.now += RETRY_WAIT_CYCLES
        return False

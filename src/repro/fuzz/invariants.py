"""Durable-state invariant library for the fuzz campaign.

Every fuzzable subject — the eight Table-II workloads plus the Section
V-A in-place table — gets three named checks against its *durable* image
(what PM holds after a crash and recovery):

* ``structure`` — the data structure's own integrity invariants
  (:meth:`~repro.workloads.base.Workload.check_integrity`: chains
  resolve, red-black and BST properties hold, the heap property holds,
  radix paths match key prefixes, ...);
* ``completeness`` — every committed key (the oracle tracked by the
  driver) maps to its exact committed value;
* ``exactness`` — the structure contains *no* key beyond the committed
  set: an uncommitted insert must never become durable, and a committed
  remove must never resurrect.

The exactness check is what the pre-existing property tests lacked; it
needs each workload to expose its full durable key set, which the
``iter_keys`` adapter on every workload provides.
"""

from __future__ import annotations

from typing import Iterable, List, Tuple, Union

from repro.common import units
from repro.common.errors import RecoveryError, SimulationError
from repro.runtime.ptx import PTx
from repro.workloads import WORKLOADS, InPlaceTable, Workload

#: Anything the campaign can drive and check.
Subject = Union[Workload, InPlaceTable]

#: Canonical durable state: sorted ``(key, value-words)`` pairs.
State = Tuple[Tuple[int, Tuple[int, ...]], ...]


class InvariantViolation(Exception):
    """A durable-state invariant failed after crash recovery."""

    def __init__(self, check: str, message: str) -> None:
        super().__init__(f"{check}: {message}")
        self.check = check
        self.message = message


#: Slots of the fuzzed in-place table.
INPLACE_SLOTS = 32


def make_subject(workload: str, rt: PTx, *, value_bytes: int = 32) -> Subject:
    """Instantiate a fuzz subject by name (workload names plus
    ``"inplace"`` for the Section V-A in-place table)."""
    if workload == "inplace":
        return InPlaceTable(rt, num_slots=INPLACE_SLOTS, seq_capacity=256)
    return WORKLOADS[workload](rt, value_bytes=value_bytes)


# ----------------------------------------------------------------------
# checks
# ----------------------------------------------------------------------


def check_subject(subject: Subject) -> None:
    """Run every invariant against the durable image; raise
    :class:`InvariantViolation` on the first failure."""
    if isinstance(subject, InPlaceTable):
        _check_inplace(subject)
    else:
        _check_workload(subject)


def _check_workload(subject: Workload) -> None:
    read = subject.reader(durable=True)
    try:
        subject.check_integrity(read)
    except RecoveryError as exc:
        raise InvariantViolation("structure", str(exc)) from exc

    for key in sorted(subject.expected):
        try:
            got = subject.lookup(key, durable=True)
        except SimulationError:
            got = None
        want = subject.expected[key]
        if got != want:
            raise InvariantViolation(
                "completeness",
                f"{subject.name}: committed key {key} reads "
                f"{None if got is None else got[:2]}, want {want[:2]}",
            )

    durable_keys = sorted(set(subject.iter_keys(read)))
    extra = [k for k in durable_keys if k not in subject.expected]
    if extra:
        raise InvariantViolation(
            "exactness",
            f"{subject.name}: uncommitted key(s) {extra[:4]} present in "
            f"the durable structure",
        )
    missing = sorted(set(subject.expected) - set(durable_keys))
    if missing:
        raise InvariantViolation(
            "exactness",
            f"{subject.name}: committed key(s) {missing[:4]} missing from "
            f"the durable key set",
        )


def _check_inplace(subject: InPlaceTable) -> None:
    machine = subject.rt.machine
    read = machine.durable_read
    from repro.workloads.inplace import HEADER

    count = read(HEADER.addr(subject.header, "seq_count"))
    capacity = read(HEADER.addr(subject.header, "seq_capacity"))
    if count > capacity:
        raise InvariantViolation(
            "structure", f"inplace: seq_count {count} exceeds capacity {capacity}"
        )
    slots = read(HEADER.addr(subject.header, "slots"))
    for index in range(subject.num_slots):
        got = read(slots + index * units.WORD_BYTES)
        want = subject.expected.get(index, 0)
        check = "completeness" if index in subject.expected else "exactness"
        if got != want:
            raise InvariantViolation(
                check, f"inplace: slot {index} holds {got}, expected {want}"
            )


# ----------------------------------------------------------------------
# canonical durable state (differential checking)
# ----------------------------------------------------------------------


def durable_state(subject: Subject) -> State:
    """The subject's durable *logical* state, layout-independent.

    Two runs of the same committed operation sequence must produce the
    same logical state regardless of scheme or annotation policy — this
    is what the campaign's differential check compares against the FG
    baseline.
    """
    if isinstance(subject, InPlaceTable):
        return tuple(
            (i, (subject.read_slot(i, durable=True),))
            for i in range(subject.num_slots)
        )
    read = subject.reader(durable=True)
    out: List[Tuple[int, Tuple[int, ...]]] = []
    # Multiplicity is kept on purpose: a resurrected node plus a fresh
    # re-insert shows up as a duplicated key and must not compare equal
    # to the baseline's single entry.
    for key in sorted(subject.iter_keys(read)):
        try:
            value = subject.lookup(key, durable=True)
        except SimulationError:
            # A poisoned node can leave a NULL/garbage value pointer; the
            # state must still be *comparable* (it will never equal any
            # legal baseline state), not crash the checker.
            out.append((key, ("<unreadable>",)))
            continue
        out.append((key, tuple(value) if value is not None else ()))
    return tuple(out)


def committed_state(subject: Subject) -> State:
    """The oracle's view of the same canonical state."""
    if isinstance(subject, InPlaceTable):
        return tuple(
            (i, (subject.expected.get(i, 0),)) for i in range(subject.num_slots)
        )
    return tuple(
        (key, tuple(subject.expected[key])) for key in sorted(subject.expected)
    )

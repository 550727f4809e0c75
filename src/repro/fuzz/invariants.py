"""Fuzz subjects, the durable-state vocabulary and the violation type.

Every fuzzable subject — the eight Table-II workloads plus the Section
V-A in-place table — is built by :func:`make_subject`.  The campaigns
judge a recovered image through :func:`repro.fuzz.kernel.durable_image`
(the structure's own integrity check, then :func:`durable_state`) and
:func:`repro.fuzz.kernel.accept`, which holds that canonical state to
the legal images and names the failed check:

* ``structure`` — the data structure's integrity invariants
  (:meth:`~repro.workloads.base.Workload.check_integrity`: chains
  resolve, red-black and BST properties hold, the heap property holds,
  radix paths match key prefixes, ...);
* ``completeness`` — every committed key is durable;
* ``exactness`` — no key beyond the committed set is durable: an
  uncommitted insert must never become durable, and a committed remove
  must never resurrect;
* ``differential`` — every durable key holds its committed value.
"""

from __future__ import annotations

from typing import List, Tuple, Union

from repro.common.errors import SimulationError
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

"""Deterministic, seedable media fault model.

A :class:`FaultModel` is attached to a
:class:`~repro.mem.pm.PersistentMemory` (``pm.fault_model = model``) and
fires on the log-append clock: every ``pm.log_append`` call passes the
model the entry about to become durable plus its global append index.
The model's *plan* (one of :class:`TornAppend`, :class:`BitFlip`,
:class:`DropDrains`) decides what actually reaches the media.

Torn appends and bit flips crash the machine at the very append they
damage — that is the physically honest moment: once later durability
events have happened, the words are on media and can no longer be
partially lost.  Drop-drain faults instead revert already-applied
durability groups after the crash, modelling the ADR promise being
broken by a failed energy reserve.

Everything is deterministic: plans are explicit coordinates, and the
seed only helps a campaign *choose* coordinates
(:meth:`FaultModel.choose_flip` draws each case from its own seeded
RNG), never inside the injection itself.
"""

from __future__ import annotations

import random
from dataclasses import dataclass
from typing import List, Optional, Tuple, Union

from repro.common.errors import PowerFailure, SimulationError
from repro.mem.logregion import DurableLogEntry
from repro.mem.pm import PersistentMemory

#: Fault-kind tags addressable from CLI flags and reproducer files.
FAULT_KINDS = ("torn-tail", "bit-flip", "drop-drains")


@dataclass(frozen=True)
class TornAppend:
    """Cut the *append_index*-th log append after *cut_words* words.

    ``cut_words == 0`` means the append never touched media (the stream
    simply ends earlier); a cut equal to the entry's full wire length is
    the no-damage control case (append completed, then the power died).
    """

    append_index: int
    cut_words: int


@dataclass(frozen=True)
class BitFlip:
    """Flip bit *bit* of wire word *word* of the *append_index*-th
    append, then crash.  The damaged entry always belongs to the
    in-flight transaction — exactly the uncommitted-entry corruption the
    per-entry checksum must catch."""

    append_index: int
    word: int
    bit: int


@dataclass(frozen=True)
class DropDrains:
    """After the crash, revert the last *count* durability groups (WPQ
    drains that never reached media).  Applied via
    :meth:`FaultModel.apply_post_crash`, not on the append clock."""

    count: int


Plan = Union[TornAppend, BitFlip, DropDrains]


class FaultModel:
    """One planned media fault, deterministic and replayable."""

    def __init__(self, plan: Optional[Plan] = None, *, seed: int = 0, probe=None) -> None:
        self.plan = plan
        self.seed = seed
        #: Set once the plan actually fired (coverage accounting).
        self.fired = False
        #: A recording pass's capture probe: at each of its append
        #: indices ``probe.hit(entry)`` captures the image the append is
        #: about to change (and returns the next index, or None); the
        #: append then lands undamaged.
        self.probe = probe

    # --- append-clock injection (called by PersistentMemory) -----------

    def on_append(
        self, pm: PersistentMemory, entry: DurableLogEntry, index: int
    ) -> bool:
        """Intercept one log append.  Returns True when the model
        handled the append itself (the normal path must not run).  May
        raise :class:`PowerFailure` — the fault's crash."""
        probe = self.probe
        if probe is not None and index == probe.at:
            probe.hit(entry)
            return False
        plan = self.plan
        if isinstance(plan, TornAppend) and index == plan.append_index:
            self.fired = True
            self.damage(pm, entry)
            raise PowerFailure(
                f"torn log append #{index} (cut at word {plan.cut_words})"
            )
        if isinstance(plan, BitFlip) and index == plan.append_index:
            self.fired = True
            self.damage(pm, entry)
            raise PowerFailure(
                f"bit flip in log append #{index} "
                f"(word {plan.word}, bit {plan.bit})"
            )
        return False

    def damage(self, pm: PersistentMemory, entry: DurableLogEntry) -> None:
        """Write *entry* to *pm* the way the torn-append or bit-flip plan
        lets it reach the media (the crash itself is the caller's)."""
        plan = self.plan
        if isinstance(plan, TornAppend):
            pm.serialize_partial(entry, plan.cut_words)
        elif isinstance(plan, BitFlip):
            pm.flip_serialized_bit(pm.append_clean(entry), plan.word, plan.bit)
        else:
            raise SimulationError(f"plan {plan!r} damages no append")

    # --- post-crash injection ------------------------------------------

    def apply_post_crash(self, pm: PersistentMemory) -> int:
        """Apply the post-crash part of the plan (drop-drain reverts).
        Returns the number of durability groups reverted."""
        if isinstance(self.plan, DropDrains):
            dropped = pm.drop_last_drains(self.plan.count)
            self.fired = self.fired or dropped > 0
            return dropped
        return 0

    # --- deterministic coordinate helpers (campaign drivers) ------------

    def choose_flip(
        self, wire_lengths: List[int], *, case: int
    ) -> Optional[BitFlip]:
        """Pick a (append, word, bit) coordinate from the dry-run wire
        layout, deterministically per ``(seed, case)``."""
        if not wire_lengths:
            return None
        rng = random.Random(f"faults:{self.seed}:flip:{case}")
        append_index = rng.randrange(len(wire_lengths))
        word = rng.randrange(wire_lengths[append_index])
        bit = rng.randrange(64)
        return BitFlip(append_index=append_index, word=word, bit=bit)


def tear_points(wire_lengths: List[int]) -> List[Tuple[int, int]]:
    """Every (append_index, cut_words) coordinate of an exhaustive
    torn-tail sweep over a run whose appends have the given wire word
    counts — every word-boundary cut of every entry, including the
    zero-cut (append lost entirely) and full-cut (control) cases."""
    points: List[Tuple[int, int]] = []
    for index, nwords in enumerate(wire_lengths):
        if nwords <= 0:
            raise SimulationError(f"append #{index} has no wire words")
        points.extend((index, cut) for cut in range(nwords + 1))
    return points

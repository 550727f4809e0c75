"""Exception hierarchy for the SLPMT reproduction.

Every error raised by the library derives from :class:`ReproError`, so
downstream users can catch one type.  The subclasses mirror the distinct
failure domains of the system: ISA misuse, simulator invariant violations,
transactional misuse, allocation failures, and recovery failures.
"""

from __future__ import annotations


class ReproError(Exception):
    """Base class for every error raised by :mod:`repro`."""


class IsaError(ReproError):
    """An instruction was constructed or executed with invalid operands."""


class AlignmentError(IsaError):
    """A memory operand was not aligned to the required granularity."""


class SimulationError(ReproError):
    """An internal simulator invariant was violated (a bug, not user error)."""


class LogParseError(SimulationError):
    """The serialized PM log stream could not be parsed.

    Carries the word-aligned PM address of the offending word so a
    report (or a debugger) can point at the exact media location.
    """

    def __init__(self, message: str, *, offset: int) -> None:
        super().__init__(f"{message} at {offset:#x}")
        self.offset = offset


class ArtifactError(ReproError):
    """A checked-in or user-supplied artifact could not be used.

    Raised for a missing or unreadable file, bytes that are not a JSON
    object, or a field (``kind``, ``schema_version``, ...) that does not
    match what the reader expects; the message names the file and the
    field.
    """


class TransactionError(ReproError):
    """Transactional API misuse (nested begin, commit outside txn, ...)."""


class TransactionAborted(ReproError):
    """Raised when a transaction is explicitly aborted (Section V-B)."""


class AllocationError(ReproError):
    """The persistent heap could not satisfy an allocation request."""


class PowerFailure(ReproError):
    """Injected crash signal: raised at a durability point to simulate a
    power loss; callers let it propagate to the run loop, which freezes
    the durable state and discards everything volatile."""


class RecoveryError(ReproError):
    """Post-crash recovery could not restore a consistent state."""


class TornLogError(RecoveryError):
    """Strict recovery found a torn (partially appended) log tail.

    Real PM controllers guarantee only 8-byte write atomicity, so a
    power failure can leave the final log append cut at any word
    boundary; strict policy refuses to recover over such a tail.
    """

    def __init__(self, message: str, *, offset: int) -> None:
        super().__init__(f"{message} at {offset:#x}")
        self.offset = offset


class LogChecksumError(RecoveryError):
    """Strict recovery found a log entry whose checksum does not match.

    The entry's payload can not be trusted: replaying (redo) or
    restoring (undo) from it would propagate media corruption into
    application data, so strict policy surfaces the damage instead.
    """

    def __init__(self, message: str, *, offset: int) -> None:
        super().__init__(f"{message} at {offset:#x}")
        self.offset = offset


class RetryExhausted(TransactionError):
    """A transaction exhausted its abort-retry budget.

    Raised by the PTx retry helper after the configured number of
    deterministic backoff-and-retry rounds all ended in an abort.
    """


class CompilerError(ReproError):
    """The annotation compiler was given malformed IR."""

"""Byte-accurate encoding of the durable log region.

The simulator keeps the durable log as a start index, the live
extents, a live index and a view on
:class:`~repro.mem.pm.PersistentMemory` (the *structural* log, fast to
query, pruned on commit) over a *serialized* stream of words written
into the PM log region at :data:`~repro.mem.layout.PM_LOG_BASE`.  The
serialized form is what a real controller would see after a crash:
this module defines the codec, and recovery re-derives every entry
purely from PM words whenever an injected fault has left media the
live index does not describe
(:meth:`~repro.mem.pm.PersistentMemory.parsed_log`), so the byte
stream alone carries the recovery protocol.

Stream wire format, version 1 (64-bit words):

* stream header — :data:`LOG_MAGIC` word, then a version word; entries
  follow immediately after;
* entry header word — ``kind`` (4 bits) | ``nwords`` (8 bits, <<4) |
  ``tx_seq`` (52 bits, <<12);
* for payload records (undo/redo, plus the 2PC ``prepare`` and
  ``decide-commit``/``decide-abort`` records): one address word, then
  ``nwords`` payload words;
* every entry ends with a checksum word: CRC-32 of the entry's preceding
  wire words, folded into 64 bits (low half the CRC, high half its
  complement — never zero, so a checksum can not mimic the terminator);
* a zero word terminates the stream (kind 0 is invalid).

A region whose base word is zero holds an empty log (pristine, reset,
or its first drain never reached media).  Any other base word that is
not :data:`LOG_MAGIC` is damage: :func:`decode_region` reports it at
the base.

The stream is append-only.  Entries are never erased — markers make
stale records inert: recovery ignores any record whose transaction has a
commit *or abort* marker (aborted transactions were already rolled back
by the kernel-space replay of Section V-B).

Tags 5–8 carry the cross-shard two-phase-commit protocol state
(:mod:`repro.shard.twopc`): ``prepare`` stages one key/value write of a
global transaction on a participant (addr = key, payload = value
words), the ``prepared`` marker seals a participant's prepare phase,
and ``decide-commit``/``decide-abort`` persist the coordinator's (or a
participant's) durable decision (addr = deciding node id, payload =
participant shard ids).  They ride the same CRC-checked framing as
undo/redo records, so torn/bit-flipped decision records are detected by
the tolerant decoder exactly like data records; local replay treats
them as inert and recovery surfaces them for in-doubt resolution.

Because real PM controllers guarantee only 8-byte write atomicity, a
crash can cut the final append at any word boundary.  The *tolerant*
decoder (:func:`decode_stream_tolerant`) therefore never raises on
damaged media: it classifies each entry as valid, corrupt (checksum or
framing mismatch mid-stream) or torn (an incomplete tail with nothing
valid after it) and leaves the policy decision — refuse or salvage — to
:mod:`repro.recovery.engine`.
"""

from __future__ import annotations

import zlib
from dataclasses import dataclass, field
from typing import Callable, List, Optional, Tuple

from repro.common import units
from repro.common.errors import LogParseError, SimulationError
from repro.mem.pm import DurableLogEntry

#: Wire tags (0 is the terminator and therefore invalid).  Tags 5–8 are
#: the cross-shard 2PC protocol records (see the module docstring).
KIND_TAGS = {
    "undo": 1,
    "redo": 2,
    "commit": 3,
    "abort": 4,
    "prepare": 5,
    "prepared": 6,
    "decide-commit": 7,
    "decide-abort": 8,
}
TAG_KINDS = {tag: kind for kind, tag in KIND_TAGS.items()}

#: Entry kinds that carry an address and payload.
PAYLOAD_KINDS = ("undo", "redo", "prepare", "decide-commit", "decide-abort")

#: The 2PC protocol record kinds: inert to local replay, collected by
#: recovery for cross-shard in-doubt resolution.
TWOPC_KINDS = ("prepare", "prepared", "decide-commit", "decide-abort")

#: The durable decision markers among :data:`TWOPC_KINDS`.
DECISION_KINDS = ("decide-commit", "decide-abort")

#: First word of a stream ("SLPMTLOG", little-endian).  The low nibble
#: (0x53 & 0xF = 3) is irrelevant: the region check matches the whole
#: word, never the tag field.
LOG_MAGIC = int.from_bytes(b"SLPMTLOG", "little")

#: Current stream format version.
LOG_VERSION = 1

#: Words occupied by the v1 stream header (magic + version).
HEADER_WORDS = 2

_SEQ_LIMIT = 1 << 52
_WORD_MASK = (1 << 64) - 1


def entry_checksum(words: List[int]) -> int:
    """CRC-32 of the wire words, folded into a non-zero 64-bit word.

    The low half carries the CRC, the high half its bitwise complement:
    the two halves can never both be zero, so a checksum word is always
    distinguishable from the stream terminator.
    """
    crc = zlib.crc32(b"".join(w.to_bytes(8, "little") for w in words))
    return crc | ((crc ^ 0xFFFF_FFFF) << 32)


def encode_entry(entry: DurableLogEntry) -> List[int]:
    """Serialize one entry into its checksummed wire words."""
    try:
        tag = KIND_TAGS[entry.kind]
    except KeyError:
        raise SimulationError(f"unencodable log entry kind {entry.kind!r}") from None
    if not 0 <= entry.tx_seq < _SEQ_LIMIT:
        raise SimulationError(f"tx_seq {entry.tx_seq} exceeds the 52-bit field")
    nwords = len(entry.words)
    if nwords > 8:
        raise SimulationError("records cover at most a cache line (8 words)")
    header = tag | (nwords << 4) | (entry.tx_seq << 12)
    if entry.kind in PAYLOAD_KINDS:
        words = [header, entry.addr] + [w & _WORD_MASK for w in entry.words]
    else:
        words = [header]
    words.append(entry_checksum(words))
    return words


def entry_wire_words(entry: DurableLogEntry) -> int:
    """Number of words the entry occupies on the wire."""
    return (3 + len(entry.words)) if entry.kind in PAYLOAD_KINDS else 2


def stream_header_words() -> List[int]:
    """The two words opening a v1 serialized stream."""
    return [LOG_MAGIC, LOG_VERSION]


def decode_extent(
    read_word: Callable[[int], int], start: int
) -> Tuple[int, DurableLogEntry]:
    """Decode the one entry whose header word sits at *start*, trusting
    its framing: kind, tx_seq and payload length come from the header
    word and the checksum is not verified.  Returns ``(wire words,
    entry)``; raises :class:`LogParseError` on an invalid kind tag."""
    header = read_word(start)
    kind = TAG_KINDS.get(header & 0xF)
    if kind is None:
        raise LogParseError("invalid entry header", offset=start)
    tx_seq = header >> 12
    if kind not in PAYLOAD_KINDS:
        return 2, DurableLogEntry(kind=kind, tx_seq=tx_seq)
    nwords = (header >> 4) & 0xFF
    step = units.WORD_BYTES
    return 3 + nwords, DurableLogEntry(
        kind=kind,
        tx_seq=tx_seq,
        addr=read_word(start + step),
        words=tuple(read_word(start + (2 + i) * step) for i in range(nwords)),
    )


# ----------------------------------------------------------------------
# damage classification (tolerant decoding)
# ----------------------------------------------------------------------


@dataclass(frozen=True)
class DamagedEntry:
    """One undecodable or untrustworthy wire entry.

    ``offset`` is the PM word address of the entry's header word;
    ``reason`` is ``"torn"`` (incomplete tail), ``"checksum"`` (payload
    words fail their CRC), ``"header"`` (invalid kind tag) or
    ``"nwords"`` (absurd payload length).  ``kind``/``tx_seq`` are
    best-effort guesses from the (possibly damaged) header word.
    """

    offset: int
    reason: str
    kind: Optional[str] = None
    tx_seq: Optional[int] = None
    words: Tuple[int, ...] = ()

    def __str__(self) -> str:
        who = f" ({self.kind} tx_seq={self.tx_seq})" if self.kind else ""
        return f"{self.reason} entry at {self.offset:#x}{who}"


@dataclass
class ParsedLog:
    """A log as recovery reads it: a tolerant parse of the serialized
    region, or the live index (which carries no damage)."""

    entries: List[DurableLogEntry] = field(default_factory=list)
    damaged: List[DamagedEntry] = field(default_factory=list)
    torn_tail: Optional[DamagedEntry] = None

    @property
    def clean(self) -> bool:
        return not self.damaged and self.torn_tail is None


def decode_region(
    read_word: Callable[[int], int], base: int, limit: int
) -> ParsedLog:
    """Tolerant parse of a whole log region whose header sits at *base*.

    A zero base word is an empty log.  Any other word that is not
    :data:`LOG_MAGIC` destroys framing: it is reported as ``"header"``
    damage at *base* and nothing after it is parsed.
    """
    first = read_word(base)
    if first == LOG_MAGIC:
        return decode_stream_tolerant(
            read_word, base + HEADER_WORDS * units.WORD_BYTES, limit
        )
    parsed = ParsedLog()
    if first:
        parsed.damaged.append(
            DamagedEntry(offset=base, reason="header", words=(first,))
        )
    return parsed


def decode_stream_tolerant(
    read_word: Callable[[int], int], base: int, limit: int
) -> ParsedLog:
    """Parse as much of the stream as the media supports, never raising.

    Damage handling:

    * an entry whose header carries an unknown kind tag or an absurd
      ``nwords`` destroys framing — it is recorded and parsing stops
      (everything after it is unreachable, exactly like real media);
    * an entry whose checksum word mismatches is recorded as
      ``"checksum"`` damage and *skipped* (its claimed extent is known,
      so framing survives) — unless nothing but zeros follows, in which
      case it is the torn tail of the final in-flight append;
    * a header claiming words past *limit* is a torn tail.
    """
    out = ParsedLog()
    cursor = base
    while cursor < limit:
        header = read_word(cursor)
        if header == 0:
            break
        tag = header & 0xF
        kind = TAG_KINDS.get(tag)
        nwords = (header >> 4) & 0xFF
        tx_seq = header >> 12
        if kind is None:
            out.damaged.append(
                DamagedEntry(offset=cursor, reason="header", words=(header,))
            )
            break
        if kind in PAYLOAD_KINDS and not 1 <= nwords <= 8:
            out.damaged.append(
                DamagedEntry(
                    offset=cursor, reason="nwords", kind=kind, tx_seq=tx_seq,
                    words=(header,),
                )
            )
            break
        total = (3 + nwords) if kind in PAYLOAD_KINDS else 2
        end = cursor + total * units.WORD_BYTES
        if end > limit:
            out.torn_tail = DamagedEntry(
                offset=cursor, reason="torn", kind=kind, tx_seq=tx_seq,
                words=(header,),
            )
            break
        wire = [
            read_word(cursor + i * units.WORD_BYTES) for i in range(total)
        ]
        if wire[-1] != entry_checksum(wire[:-1]):
            damage = DamagedEntry(
                offset=cursor,
                reason="torn" if _only_zeros(read_word, end, limit) else "checksum",
                kind=kind,
                tx_seq=tx_seq,
                words=tuple(wire),
            )
            if damage.reason == "torn":
                out.torn_tail = damage
                break
            out.damaged.append(damage)
            cursor = end
            continue
        if kind in PAYLOAD_KINDS:
            out.entries.append(
                DurableLogEntry(
                    kind=kind, tx_seq=tx_seq, addr=wire[1],
                    words=tuple(wire[2 : 2 + nwords]),
                )
            )
        else:
            out.entries.append(DurableLogEntry(kind=kind, tx_seq=tx_seq))
        cursor = end
    return out


def _only_zeros(read_word: Callable[[int], int], start: int, limit: int) -> bool:
    """True when nothing non-zero lies in ``[start, limit)`` — i.e. the
    damaged entry is the last thing the media ever received."""
    cursor = start
    while cursor < limit:
        if read_word(cursor) != 0:
            return False
        cursor += units.WORD_BYTES
    return True

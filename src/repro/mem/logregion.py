"""The durable log's format: entry type, wire encoding and decoders.

The durable log *is* its serialized words.
:class:`~repro.mem.pm.PersistentMemory` keeps the log region as one
dense ``array('Q')`` of words from :data:`~repro.mem.layout.PM_LOG_BASE`,
beside each placed append's start offset and an index of the live
positions; it stores no entry objects.  This module owns everything
about the format: the entry type (:class:`DurableLogEntry`), its kind
tags, the one wire-length rule (:func:`wire_words`) and the codec.
Every reader decodes the word array, one placed entry at a time
(:func:`decode_extent`) or the whole region (:func:`decode_region`,
what recovery replays whenever an injected fault has left media the
live index does not describe), so the words alone carry the recovery
protocol.  Offsets in every error and damage record are PM addresses.

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
crash can cut the final append at any word boundary.  The region's
decoder (:func:`decode_region`) therefore never raises on damaged
media: it classifies each entry as valid, corrupt (checksum or framing
mismatch mid-stream) or torn (an incomplete tail with nothing valid
after it) and leaves the policy decision — refuse or salvage — to
:mod:`repro.recovery.engine`.
"""

from __future__ import annotations

import zlib
from dataclasses import dataclass, field
from typing import List, Optional, Sequence, Tuple

from repro.common import units
from repro.common.errors import LogParseError, SimulationError
from repro.mem import layout

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


@dataclass(frozen=True)
class DurableLogEntry:
    """One durable record in the PM log region, as encoded or decoded.

    ``kind`` is ``"undo"`` (old words), ``"redo"`` (new words),
    ``"commit"`` (transaction end marker), or ``"abort"`` (the
    transaction was rolled back in place by the Section V-B kernel
    replay — its remaining records are inert).  The cross-shard 2PC
    protocol (:mod:`repro.shard.twopc`) adds ``"prepare"`` (a staged
    write of a global transaction: addr = key, words = value),
    ``"prepared"`` (marker sealing a participant's prepare phase) and
    ``"decide-commit"``/``"decide-abort"`` (a durable decision: addr =
    deciding node id, words = participant shard ids).  ``tx_seq`` is
    the global transaction sequence number that owns the record;
    ``addr`` is the word-aligned base of the payload (or the key/node
    id for protocol records).
    """

    kind: str
    tx_seq: int
    addr: int = 0
    words: Tuple[int, ...] = ()

    def __post_init__(self) -> None:
        if self.kind not in KIND_TAGS:
            raise SimulationError(f"unknown log entry kind {self.kind!r}")


def wire_words(kind: str, nwords: int) -> int:
    """Words an entry of *kind* with *nwords* payload words occupies on
    the wire: header and checksum, plus the address and the payload for
    :data:`PAYLOAD_KINDS`."""
    return 3 + nwords if kind in PAYLOAD_KINDS else 2


def _address(index: int) -> int:
    """PM address of log word *index*."""
    return layout.PM_LOG_BASE + index * units.WORD_BYTES


def entry_checksum(words: Sequence[int]) -> int:
    """CRC-32 of the wire words, folded into a non-zero 64-bit word.

    The low half carries the CRC, the high half its bitwise complement:
    the two halves can never both be zero, so a checksum word is always
    distinguishable from the stream terminator.
    """
    crc = zlib.crc32(b"".join(w.to_bytes(8, "little") for w in words))
    return crc | ((crc ^ 0xFFFF_FFFF) << 32)


def encode_entry(entry: DurableLogEntry) -> List[int]:
    """Serialize one entry into its checksummed wire words."""
    if not 0 <= entry.tx_seq < _SEQ_LIMIT:
        raise SimulationError(f"tx_seq {entry.tx_seq} exceeds the 52-bit field")
    nwords = len(entry.words)
    if nwords > 8:
        raise SimulationError("records cover at most a cache line (8 words)")
    header = KIND_TAGS[entry.kind] | (nwords << 4) | (entry.tx_seq << 12)
    words = [header, entry.addr] + [w & _WORD_MASK for w in entry.words]
    # A marker keeps only its header before the checksum.
    del words[wire_words(entry.kind, nwords) - 1 :]
    words.append(entry_checksum(words))
    return words


def stream_header_words() -> List[int]:
    """The two words opening a v1 serialized stream."""
    return [LOG_MAGIC, LOG_VERSION]


def _entry(kind: str, wire: Sequence[int]) -> DurableLogEntry:
    """The entry whose wire words (checksum last) are *wire*."""
    if kind in PAYLOAD_KINDS:
        return DurableLogEntry(kind, wire[0] >> 12, wire[1], tuple(wire[2:-1]))
    return DurableLogEntry(kind, wire[0] >> 12)


def decode_extent(words: Sequence[int], index: int) -> Tuple[int, DurableLogEntry]:
    """Decode the one entry whose header is log word *index*, trusting
    its framing: kind, tx_seq and payload length come from the header
    word and the checksum is not verified.  Words past the end of
    *words* read as zero, as on the media.  Returns ``(wire words,
    entry)``; raises :class:`LogParseError` on an invalid kind tag."""
    header = words[index] if index < len(words) else 0
    kind = TAG_KINDS.get(header & 0xF)
    if kind is None:
        raise LogParseError("invalid entry header", offset=_address(index))
    total = wire_words(kind, (header >> 4) & 0xFF)
    wire = list(words[index : index + total])
    wire += [0] * (total - len(wire))
    return total, _entry(kind, wire)


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


def decode_region(words: Sequence[int]) -> ParsedLog:
    """Parse as much of a log region as the media supports, never raising.

    *words* are the region's words from its base; nothing past them was
    ever written, so their length bounds the parse.  A zero (or absent)
    base word is an empty log.  Any other base word that is not
    :data:`LOG_MAGIC` destroys framing: it is reported as ``"header"``
    damage at the base and nothing after it is parsed.

    Damage handling past the stream header:

    * an entry whose header carries an unknown kind tag or an absurd
      ``nwords`` destroys framing — it is recorded and parsing stops
      (everything after it is unreachable, exactly like real media);
    * an entry whose checksum word mismatches is recorded as
      ``"checksum"`` damage and *skipped* (its claimed extent is known,
      so framing survives) — unless nothing but zeros follows, in which
      case it is the torn tail of the final in-flight append;
    * a header claiming words past the end is a torn tail.
    """
    out = ParsedLog()
    limit = len(words)
    first = words[0] if limit else 0
    if first != LOG_MAGIC:
        if first:
            out.damaged.append(
                DamagedEntry(offset=_address(0), reason="header", words=(first,))
            )
        return out
    cursor = HEADER_WORDS
    while cursor < limit:
        header = words[cursor]
        if header == 0:
            break
        kind = TAG_KINDS.get(header & 0xF)
        nwords = (header >> 4) & 0xFF
        tx_seq = header >> 12
        if kind is None:
            out.damaged.append(
                DamagedEntry(offset=_address(cursor), reason="header", words=(header,))
            )
            break
        if kind in PAYLOAD_KINDS and not 1 <= nwords <= 8:
            out.damaged.append(
                DamagedEntry(
                    offset=_address(cursor), reason="nwords", kind=kind,
                    tx_seq=tx_seq, words=(header,),
                )
            )
            break
        end = cursor + wire_words(kind, nwords)
        if end > limit:
            out.torn_tail = DamagedEntry(
                offset=_address(cursor), reason="torn", kind=kind, tx_seq=tx_seq,
                words=(header,),
            )
            break
        wire = words[cursor:end]
        if wire[-1] == entry_checksum(wire[:-1]):
            out.entries.append(_entry(kind, wire))
            cursor = end
            continue
        damage = DamagedEntry(
            offset=_address(cursor),
            reason="checksum" if any(words[end:]) else "torn",
            kind=kind,
            tx_seq=tx_seq,
            words=tuple(wire),
        )
        if damage.reason == "torn":
            out.torn_tail = damage
            break
        out.damaged.append(damage)
        cursor = end
    return out

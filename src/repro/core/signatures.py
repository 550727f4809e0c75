"""Working-set Bloom signatures for lazy persistency (Section III-C3).

Each committed transaction that still owns lazily persistent cache lines
keeps a 2048-bit signature of its read- and write-set line addresses.  On
every subsequent store the hardware probes all active signatures; a hit
means the store may touch data that a deferred line was derived from, so
the deferred lines must be persisted first.

Bloom signatures can give false positives (forcing an unnecessary early
persist — a performance event, never a correctness event) but no false
negatives.  All signatures share the same hash functions, as the paper
specifies; the hashes are deterministic bit-mixers so simulations are
reproducible.
"""

from __future__ import annotations

from typing import List

from repro.common.config import SignatureConfig


def _mix(value: int, seed: int) -> int:
    """Deterministic 64-bit hash (xorshift-multiply mixer)."""
    x = (value ^ (seed * 0x9E3779B97F4A7C15)) & 0xFFFFFFFFFFFFFFFF
    x ^= x >> 30
    x = (x * 0xBF58476D1CE4E5B9) & 0xFFFFFFFFFFFFFFFF
    x ^= x >> 27
    x = (x * 0x94D049BB133111EB) & 0xFFFFFFFFFFFFFFFF
    x ^= x >> 31
    return x


#: Memo of the per-address hash masks: ``(line_addr, bits, hashes) ->``
#: OR of ``1 << position`` over every hash function.  The mask is a pure
#: deterministic function of its key, all signatures share the same hash
#: functions, and workloads revisit the same lines constantly — so the
#: mixer runs once per distinct address instead of once per probe.
_MASK_CACHE: "dict[tuple[int, int, int], int]" = {}


class BloomSignature:
    """One fixed-size Bloom filter over cache-line addresses."""

    def __init__(self, config: SignatureConfig) -> None:
        self.config = config
        self._bits = 0
        self._count = 0

    def _positions(self, line_addr: int) -> List[int]:
        return [
            _mix(line_addr, seed) % self.config.bits_per_signature
            for seed in range(self.config.num_hashes)
        ]

    def _mask(self, line_addr: int) -> int:
        key = (line_addr, self.config.bits_per_signature, self.config.num_hashes)
        mask = _MASK_CACHE.get(key)
        if mask is None:
            mask = 0
            for pos in self._positions(line_addr):
                mask |= 1 << pos
            _MASK_CACHE[key] = mask
        return mask

    def insert(self, line_addr: int) -> None:
        self._bits |= self._mask(line_addr)
        self._count += 1

    def maybe_contains(self, line_addr: int) -> bool:
        mask = self._mask(line_addr)
        return self._bits & mask == mask

    def clear(self) -> None:
        self._bits = 0
        self._count = 0

    @property
    def is_empty(self) -> bool:
        return self._bits == 0

    @property
    def inserted_count(self) -> int:
        """Number of insert operations (not distinct elements)."""
        return self._count

    def popcount(self) -> int:
        """Number of set bits (for saturation diagnostics)."""
        return bin(self._bits).count("1")

    def saturation(self) -> float:
        """Fraction of bits set; high values predict false positives."""
        return self.popcount() / self.config.bits_per_signature


class SignatureFile:
    """The per-core bank of signatures, one per transaction ID."""

    def __init__(self, config: SignatureConfig) -> None:
        self.config = config
        self._signatures = [BloomSignature(config) for _ in range(config.num_signatures)]

    def __getitem__(self, tx_id: int) -> BloomSignature:
        return self._signatures[tx_id]

    def __len__(self) -> int:
        return len(self._signatures)

    def clear(self, tx_id: int) -> None:
        self._signatures[tx_id].clear()

    def clear_all(self) -> None:
        for sig in self._signatures:
            sig.clear()

    def probe(self, line_addr: int, active_ids: "List[int]") -> "List[int]":
        """Return the IDs among *active_ids* whose signature hits *line_addr*."""
        return [
            tx_id
            for tx_id in active_ids
            if self._signatures[tx_id].maybe_contains(line_addr)
        ]

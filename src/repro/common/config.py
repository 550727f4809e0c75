"""System configuration mirroring Table III of the paper.

:class:`SystemConfig` collects every hardware parameter the evaluation
sweeps or fixes.  Defaults reproduce the paper's configuration exactly:
a 2 GHz x86-like core, a three-level MESI cache hierarchy, DDR4 DRAM for
volatile data, and an ADR persistent memory whose durability point is a
512-byte write-pending queue (WPQ) in the memory controller.

Latency fields are expressed in the unit the paper uses (cycles for caches,
nanoseconds for memories) and converted at one place
(:meth:`SystemConfig.pm_read_cycles` etc.) to keep sweep code readable.
"""

from __future__ import annotations

import dataclasses
from dataclasses import dataclass

from repro.common import units
from repro.common.errors import ReproError


@dataclass(frozen=True)
class CacheConfig:
    """Geometry and access latency of one cache level."""

    size_bytes: int
    ways: int
    latency_cycles: int

    def __post_init__(self) -> None:
        if self.size_bytes % (self.ways * units.LINE_BYTES) != 0:
            raise ReproError(
                f"cache size {self.size_bytes} not divisible into "
                f"{self.ways}-way sets of {units.LINE_BYTES}-byte lines"
            )

    @property
    def num_lines(self) -> int:
        return self.size_bytes // units.LINE_BYTES

    @property
    def num_sets(self) -> int:
        return self.num_lines // self.ways


@dataclass(frozen=True)
class PersistentMemoryConfig:
    """Intel-ADR persistent memory model (Table III, "PM" row).

    Data becomes durable once it reaches the write-pending queue; on a
    power failure the residual queue is drained by the platform (ADR), so
    the crash model treats WPQ contents as persistent.
    """

    wpq_bytes: int = 512
    wpq_insert_latency_ns: float = 4.0
    read_latency_ns: float = 150.0
    write_latency_ns: float = 500.0
    #: Round-trip cost of a *synchronous* persist (coherence request to
    #: the memory controller + durability ACK back to the core).  Paid by
    #: each ordered persist on the commit critical path; background
    #: write-backs and off-critical-path forced persists skip it
    #: (Section III-C3: those checks/persists ride the store machinery).
    persist_ack_latency_ns: float = 30.0
    #: Concurrent drain ways from the WPQ to the PM media (banking).
    #: Three ways at the 500 ns default write latency reproduces the
    #: paper's balance between commit-path persist cost and PM write
    #: bandwidth (see DESIGN.md, fidelity notes).
    drain_ways: int = 3

    @property
    def wpq_entries(self) -> int:
        """Number of cache-line slots in the write-pending queue."""
        return self.wpq_bytes // units.LINE_BYTES


@dataclass(frozen=True)
class DramConfig:
    """DDR4-2400 timing (Table III, "DRAM" row), reduced to an effective
    access latency for the additive cycle model."""

    trcd_ns: float = 14.0
    tcl_ns: float = 14.0
    trp_ns: float = 14.0
    tras_ns: float = 32.0
    twr_ns: float = 15.0
    row_hit_rate: float = 0.6

    def read_latency_ns(self) -> float:
        """Effective read latency: row hits pay CAS only, misses pay
        precharge + activate + CAS, blended by the configured hit rate."""
        hit = self.tcl_ns
        miss = self.trp_ns + self.trcd_ns + self.tcl_ns
        return self.row_hit_rate * hit + (1.0 - self.row_hit_rate) * miss

    def write_latency_ns(self) -> float:
        """Effective write latency (write recovery added on row misses)."""
        hit = self.tcl_ns
        miss = self.trp_ns + self.trcd_ns + self.tcl_ns + self.twr_ns
        return self.row_hit_rate * hit + (1.0 - self.row_hit_rate) * miss


@dataclass(frozen=True)
class LogBufferConfig:
    """Four-tier coalescing log buffer (Section III-B2).

    Tier *i* holds records covering ``2**i`` words.  Record sizes are
    8 bytes of address metadata plus the payload, i.e. 16/24/40/72 bytes;
    each tier is sized to the least common multiple of its record size and
    the cache-line size so that a full tier drains as whole lines, which
    yields exactly eight records per tier and 1216 bytes in total.
    """

    records_per_tier: int = 8
    num_tiers: int = 4

    def record_payload_words(self, tier: int) -> int:
        """Number of data words in a record of *tier* (1, 2, 4, 8)."""
        self._check_tier(tier)
        return 1 << tier

    def record_bytes(self, tier: int) -> int:
        """On-chip size of one record: 8-byte address + payload words."""
        self._check_tier(tier)
        return 8 + self.record_payload_words(tier) * units.WORD_BYTES

    def tier_bytes(self, tier: int) -> int:
        """Storage of one tier (records_per_tier records)."""
        return self.record_bytes(tier) * self.records_per_tier

    def total_bytes(self) -> int:
        """Total buffer storage (1216 bytes in the default configuration)."""
        return sum(self.tier_bytes(t) for t in range(self.num_tiers))

    def _check_tier(self, tier: int) -> None:
        if not 0 <= tier < self.num_tiers:
            raise ReproError(f"tier {tier} out of range 0..{self.num_tiers - 1}")


@dataclass(frozen=True)
class SignatureConfig:
    """Working-set signatures for lazy persistency (Section III-C3).

    Four 2048-bit Bloom signatures (256 bytes each, 1 KB total), one per
    in-flight-or-committed transaction ID; all share the same hash
    functions, as the paper specifies to save area and energy.
    """

    num_signatures: int = 4
    bits_per_signature: int = 2048
    num_hashes: int = 2

    @property
    def bytes_per_signature(self) -> int:
        return self.bits_per_signature // 8

    @property
    def total_bytes(self) -> int:
        return self.num_signatures * self.bytes_per_signature


@dataclass(frozen=True)
class SystemConfig:
    """Full machine configuration (Table III defaults)."""

    clock_ghz: float = 2.0
    l1: CacheConfig = CacheConfig(size_bytes=32 * units.KIB, ways=8, latency_cycles=4)
    l2: CacheConfig = CacheConfig(size_bytes=256 * units.KIB, ways=4, latency_cycles=12)
    l3: CacheConfig = CacheConfig(size_bytes=2 * units.MIB, ways=16, latency_cycles=40)
    dram: DramConfig = DramConfig()
    pm: PersistentMemoryConfig = PersistentMemoryConfig()
    log_buffer: LogBufferConfig = LogBufferConfig()
    signature: SignatureConfig = SignatureConfig()
    #: Number of per-core transaction IDs for lazy persistency (2-bit IDs).
    num_tx_ids: int = 4
    #: Section V-E: battery-backed caches.  The durability domain extends
    #: over the cache hierarchy and the log buffer: commits skip data
    #: persists entirely, and a power failure drains the log buffer and
    #: flushes dirty lines before volatile state is lost.  Logging is
    #: still maintained — it is what keeps transactions atomic when their
    #: working set overflows the cache (or when the crash flush lands
    #: mid-transaction data in PM).
    battery_backed_cache: bool = False

    def cycles(self, ns: float) -> int:
        """Convert nanoseconds to cycles at the configured clock."""
        return units.ns_to_cycles(ns, self.clock_ghz)

    def pm_read_cycles(self) -> int:
        return self.cycles(self.pm.read_latency_ns)

    def pm_write_cycles(self) -> int:
        return self.cycles(self.pm.write_latency_ns)

    def wpq_insert_cycles(self) -> int:
        return self.cycles(self.pm.wpq_insert_latency_ns)

    def persist_ack_cycles(self) -> int:
        return self.cycles(self.pm.persist_ack_latency_ns)

    def dram_read_cycles(self) -> int:
        return self.cycles(self.dram.read_latency_ns())

    def with_pm_write_latency(self, write_latency_ns: float) -> "SystemConfig":
        """Return a copy with a different PM write latency (Fig. 12 sweep)."""
        pm = dataclasses.replace(self.pm, write_latency_ns=write_latency_ns)
        return dataclasses.replace(self, pm=pm)

    def with_wpq_bytes(self, wpq_bytes: int) -> "SystemConfig":
        """Return a copy with a different WPQ capacity (ablation)."""
        pm = dataclasses.replace(self.pm, wpq_bytes=wpq_bytes)
        return dataclasses.replace(self, pm=pm)

    def with_battery_backed_cache(self) -> "SystemConfig":
        """Return a copy with Section V-E battery-backed caches enabled."""
        return dataclasses.replace(self, battery_backed_cache=True)

    def with_num_tx_ids(self, num_tx_ids: int) -> "SystemConfig":
        """Return a copy with a different transaction-ID count (ablation).

        The signature file grows with the pool: one working-set
        signature per transaction ID (Section III-C3).
        """
        if num_tx_ids < 2:
            raise ReproError("lazy persistency needs at least two tx IDs")
        signature = dataclasses.replace(self.signature, num_signatures=num_tx_ids)
        return dataclasses.replace(self, num_tx_ids=num_tx_ids, signature=signature)


#: The paper's exact configuration, importable as a ready-made default.
DEFAULT_CONFIG = SystemConfig()

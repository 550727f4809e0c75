"""Memory-hierarchy substrate: caches, WPQ, persistent memory, DRAM."""

from repro.mem.cache import SetAssocCache
from repro.mem.cacheline import (
    CacheLine,
    Mesi,
    aggregate_log_bits_l1_to_l2,
    new_l1_line,
    replicate_log_bits_l2_to_l1,
)
from repro.mem.dram import Dram
from repro.mem.layout import PM_BASE, PM_HEAP_BASE, is_persistent, is_volatile
from repro.mem.logregion import DurableLogEntry
from repro.mem.pm import PersistentMemory
from repro.mem.wpq import WpqInsertResult, WritePendingQueue

__all__ = [
    "SetAssocCache",
    "CacheLine",
    "Mesi",
    "new_l1_line",
    "aggregate_log_bits_l1_to_l2",
    "replicate_log_bits_l2_to_l1",
    "Dram",
    "PM_BASE",
    "PM_HEAP_BASE",
    "is_persistent",
    "is_volatile",
    "DurableLogEntry",
    "PersistentMemory",
    "WritePendingQueue",
    "WpqInsertResult",
]

"""Observed runs: single-core and multicore drivers with obs attached.

Thin orchestration used by ``python -m repro obs`` and the obs tests:
run a workload with a tracer + profiler attached, hand back everything
a report or export needs.  The simulations themselves are the same
harness/multicore code paths every benchmark uses — observability is
attached, never special-cased.
"""

from __future__ import annotations

import json
from dataclasses import dataclass
from typing import Any, Dict

from repro.core.tracing import Tracer
from repro.harness.runner import RunResult, run_workload
from repro.multicore.system import MultiCoreSystem
from repro.workloads.base import value_words_for_key
from repro.obs.profiler import CycleProfiler
from repro.workloads.hashtable import HashTable
from repro.workloads.shared import SharedOp, replay_contention


@dataclass
class ObservedRun:
    """One single-core run plus its observability artifacts."""

    result: RunResult
    tracer: Tracer
    profiler: CycleProfiler

    def to_doc(self) -> Dict[str, Any]:
        """The ``obs stats --json`` document (diffable run snapshot)."""
        return {
            "workload": self.result.workload,
            "scheme": self.result.scheme,
            "policy": self.result.policy,
            "num_ops": self.result.num_ops,
            "value_bytes": self.result.value_bytes,
            "cycles": self.result.cycles,
            "pm_bytes": self.result.pm_bytes,
            "stats": json.loads(self.result.stats.to_json()),
            "profile": self.profiler.to_dict(),
        }


def observed_run(
    workload: str,
    scheme,
    *,
    num_ops: int = 1000,
    value_bytes: int = 256,
    seed: int = 2023,
) -> ObservedRun:
    """Run one (workload, scheme) simulation under the manual
    annotation policy, with obs attached (a 100,000-event trace ring)."""
    from repro.core.schemes import scheme_by_name

    if isinstance(scheme, str):
        scheme = scheme_by_name(scheme)
    tracer = Tracer(capacity=100_000)
    profiler = CycleProfiler()
    result = run_workload(
        workload,
        scheme,
        num_ops=num_ops,
        value_bytes=value_bytes,
        seed=seed,
        tracer=tracer,
        profiler=profiler,
    )
    return ObservedRun(result=result, tracer=tracer, profiler=profiler)


def observed_multicore_ycsb(
    *,
    num_cores: int = 4,
    scheme: str = "SLPMT",
    ops_per_core: int = 50,
    value_bytes: int = 64,
    seed: int = 2023,
) -> MultiCoreSystem:
    """A multicore YCSB-load run with full observability attached.

    Every core inserts its own key range into one shared durable hash
    table under the deterministic interleaving — conflicts on shared
    headers, lazy forcing across cores and per-core commit cadence all
    show up in the exported trace.  Returns the finalized system.
    """
    from repro.core.schemes import scheme_by_name

    system = MultiCoreSystem(num_cores, scheme_by_name(scheme), seed=seed)
    system.attach_observability()
    table = HashTable(system.runtimes[0], value_bytes=value_bytes)
    streams = []
    for core in range(num_cores):
        keys = range(1_000_000 * (core + 1), 1_000_000 * (core + 1) + ops_per_core)
        streams.append([
            SharedOp(core, i, key, tuple(value_words_for_key(key, table.value_words)))
            for i, key in enumerate(keys)
        ])
    replay_contention(system, table, streams, max_attempts=256)
    system.finalize_all()
    return system

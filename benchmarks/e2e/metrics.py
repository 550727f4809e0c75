"""The benchmark's declared metrics and the statistics over runs.

``BENCHMARK.json`` at the repository root declares the workloads and
every metric with its unit, better direction and (end-to-end only)
regression bound.  Metrics measured on the simulated clock are listed
in :data:`SIMULATED`: they are deterministic for a seed, so two commits
must agree on them exactly unless a change means to move them.
"""

from __future__ import annotations

import json
import re
import statistics
from dataclasses import dataclass
from pathlib import Path
from typing import Dict, List, Optional, Sequence, Tuple

ROOT = Path(__file__).resolve().parents[2]
BENCHMARK_JSON = ROOT / "BENCHMARK.json"

NAME_RE = re.compile(r"^[A-Za-z0-9][A-Za-z0-9_.-]{0,63}$")
UNIT_RE = re.compile(r"^[A-Za-z0-9_/%.-]{1,16}$")

#: Metrics on the simulated clock (exact for a given seed).
SIMULATED = frozenset(
    {
        "cycles_per_op",
        "pm_bytes_per_op",
        "speedup_vs_fg",
        "heldout_speedup_err",
        "traffic_cut_vs_fg",
        "latency_p50_cycles",
        "latency_p99_cycles",
        "acked_per_kcyc",
        "phase.execute",
        "phase.log-append",
        "phase.log-drain",
        "phase.commit-persist",
        "phase.wpq-stall",
        "phase.forced-lazy",
        "phase.prepare-persist",
        "phase.decide-persist",
        "log.records_per_op",
        "log.coalesce_ratio",
        "log.discarded_lazy_ratio",
        "lazy.forced_ratio",
        "l1.hit_rate",
        "l2.hit_rate",
        "l3.hit_rate",
        "mem.evictions_per_op",
        "pm.log_bytes_share",
        "wpq.stall_cycles_per_op",
        "tx.aborts_per_op",
        "svc.batch_occupancy_mean",
        "svc.queue_depth_p99",
        "svc.commit_persist_cycles_per_write",
        "shard.decide_persist_cycles_per_xwrite",
        "shard.xshard_share",
        "fuzz.persist_coverage",
        "fuzz.violations",
    }
)


@dataclass(frozen=True)
class Metric:
    name: str
    unit: str
    better: str
    #: Share of the baseline median by which it may worsen (end-to-end).
    bound: Optional[float]
    scope: str  # "end_to_end" | "per_layer"

    @property
    def simulated(self) -> bool:
        return self.name in SIMULATED


@dataclass(frozen=True)
class Benchmark:
    run_seconds: int
    workloads: Tuple[str, ...]
    metrics: Dict[str, Metric]

    def scope(self, scope: str) -> List[Metric]:
        return [m for m in self.metrics.values() if m.scope == scope]


def load(path: Path = BENCHMARK_JSON) -> Benchmark:
    """Read and validate ``BENCHMARK.json`` (raises ValueError)."""
    with open(path, encoding="utf-8") as fh:
        doc = json.load(fh)
    metrics: Dict[str, Metric] = {}
    for scope in ("end_to_end", "per_layer"):
        for entry in doc[scope]:
            name = entry["name"]
            if not NAME_RE.match(name) or not UNIT_RE.match(entry["unit"]):
                raise ValueError(f"{path}: bad metric name or unit: {entry}")
            if name in metrics:
                raise ValueError(f"{path}: metric {name!r} declared twice")
            if entry["better"] not in ("higher", "lower"):
                raise ValueError(f"{path}: {name}: better must be higher or lower")
            metrics[name] = Metric(
                name, entry["unit"], entry["better"], entry.get("bound"), scope
            )
    return Benchmark(
        run_seconds=int(doc["run_seconds"]),
        workloads=tuple(w["name"] for w in doc["workloads"]),
        metrics=metrics,
    )


def quartiles(values: Sequence[float]) -> Tuple[float, float, float]:
    """``(q1, median, q3)`` as ``statistics.quantiles(n=4)`` gives them."""
    if len(values) == 1:
        return values[0], values[0], values[0]
    q1, med, q3 = statistics.quantiles(values, n=4)
    return q1, med, q3


def spread(values: Sequence[float]) -> float:
    """Interquartile distance as a share of the median."""
    q1, med, q3 = quartiles(values)
    return (q3 - q1) / abs(med) if med else (0.0 if q3 == q1 else float("inf"))

"""Compare two sets of benchmark runs, metric by metric and workload by workload.

    python3 benchmarks/e2e/compare.py A1.json A2.json ... -- B1.json B2.json ...
    python3 benchmarks/e2e/compare.py benchmarks/e2e/results/seed.json#A -- benchmarks/e2e/results/seed.json#B

Each file is a run record written by ``run.py --out``, or a trajectory
file (``results/seed.json``); ``FILE#SET`` picks one run set from a
trajectory, plain ``FILE`` takes all of its untraced runs.  For each
(workload, metric) the medians and quartiles of both sides are printed
with a verdict:

* simulated metrics and ``sim_sha256`` must be equal (same seed):
  ``unchanged``, otherwise ``better``/``worse`` by the metric's direction;
* a host metric with a bound in ``BENCHMARK.json`` is ``unresolved``
  when either side's interquartile spread exceeds the bound (unless every
  B run beats every A run), otherwise ``worse``/``better`` when the
  median moved by more than the bound, else ``unchanged``;
* per-layer host metrics have no bound and are shown as ``info``.

Exits 1 on any ``worse`` verdict or any simulated difference, 2 on bad
input, 0 otherwise.
"""

from __future__ import annotations

import json
import sys
from pathlib import Path
from typing import Dict, List, Optional, Sequence, Tuple

sys.path.insert(0, str(Path(__file__).resolve().parent))

import metrics  # noqa: E402


def verdict(metric: metrics.Metric, a: Sequence[float], b: Sequence[float]) -> str:
    """The verdict on moving from runs *a* to runs *b* (see module doc)."""
    higher = metric.better == "higher"
    _, med_a, _ = metrics.quartiles(a)
    _, med_b, _ = metrics.quartiles(b)
    if metric.simulated:
        if set(a) == set(b) and len(set(a)) == 1:
            return "unchanged"
        return "better" if (med_b > med_a) == higher and med_b != med_a else "worse"
    if metric.bound is None:
        return "info"
    if higher:
        all_better = min(b) > max(a)
    else:
        all_better = max(b) < min(a)
    if metrics.spread(a) > metric.bound or metrics.spread(b) > metric.bound:
        return "better" if all_better else "unresolved"
    change = (med_b - med_a) / abs(med_a) if med_a else 0.0
    gain = change if higher else -change
    if gain < -metric.bound:
        return "worse"
    if gain > metric.bound:
        return "better"
    return "unchanged"


def load_runs(spec: str) -> List[Dict]:
    """Run documents named by *spec* (``FILE`` or ``FILE#SET``)."""
    path, _, selector = spec.partition("#")
    with open(path, encoding="utf-8") as fh:
        doc = json.load(fh)
    if "sets" in doc:
        if selector:
            if selector not in doc["sets"]:
                raise ValueError(f"{path} has no run set {selector!r}")
            return list(doc["sets"][selector])
        return [run for runs in doc["sets"].values() for run in runs]
    if selector:
        raise ValueError(f"{path} is a single run; it has no set {selector!r}")
    return [doc]


def _records(docs: Sequence[Dict]) -> Dict[str, List[Dict]]:
    out: Dict[str, List[Dict]] = {}
    for doc in docs:
        for name, record in doc["workloads"].items():
            out.setdefault(name, []).append(record)
    return out


def _values(records: Sequence[Dict], name: str) -> List[float]:
    values = []
    for record in records:
        if name in record["metrics"]:
            values.append(record["metrics"][name]["value"])
        elif name in record.get("sim", {}):
            values.append(record["sim"][name])
    return values


def compare(
    side_a: Sequence[Dict], side_b: Sequence[Dict], bench: metrics.Benchmark
) -> Tuple[List[Tuple], bool]:
    """Rows ``(workload, metric, unit, a_quartiles, b_quartiles, verdict)``
    and whether the comparison passes (no worse, no simulated change)."""
    rows: List[Tuple] = []
    ok = True
    recs_a, recs_b = _records(side_a), _records(side_b)
    for workload in [w for w in bench.workloads if w in recs_a and w in recs_b]:
        ra, rb = recs_a[workload], recs_b[workload]
        seeds = {r["seed"] for r in ra} | {r["seed"] for r in rb}
        if len(seeds) != 1:
            raise ValueError(f"{workload}: runs use different seeds {sorted(seeds)}")
        for name, metric in bench.metrics.items():
            a, b = _values(ra, name), _values(rb, name)
            if not a or not b:
                continue
            v = verdict(metric, a, b)
            ok = ok and v != "worse" and not (metric.simulated and v != "unchanged")
            rows.append(
                (workload, name, metric.unit, metrics.quartiles(a), metrics.quartiles(b), v)
            )
        sha_a = {r["sim_sha256"] for r in ra}
        sha_b = {r["sim_sha256"] for r in rb}
        same = len(sha_a) == 1 and sha_a == sha_b
        ok = ok and same
        rows.append((workload, "sim_sha256", "sha256", None, None, "unchanged" if same else "worse"))
    return rows, ok


def _fmt(q: Optional[Tuple[float, float, float]]) -> str:
    if q is None:
        return ""
    return f"{q[1]:.6g} [{q[0]:.4g}, {q[2]:.4g}]"


def main(argv: Optional[List[str]] = None) -> int:
    argv = list(sys.argv[1:] if argv is None else argv)
    if "--" not in argv:
        print(__doc__.split("\n\n")[1], file=sys.stderr)
        return 2
    split = argv.index("--")
    specs_a, specs_b = argv[:split], argv[split + 1:]
    if not specs_a or not specs_b:
        print("need at least one run on each side of --", file=sys.stderr)
        return 2
    try:
        bench = metrics.load()
        side_a = [doc for spec in specs_a for doc in load_runs(spec)]
        side_b = [doc for spec in specs_b for doc in load_runs(spec)]
        rows, ok = compare(side_a, side_b, bench)
    except (OSError, ValueError, KeyError) as exc:
        print(f"compare: {exc}", file=sys.stderr)
        return 2
    print(f"A: {len(side_a)} run(s)   B: {len(side_b)} run(s)   median [q1, q3]")
    for workload, name, unit, qa, qb, v in rows:
        print(f"{workload:<13} {name:<40} {unit:<13} {_fmt(qa):>34} {_fmt(qb):>34}  {v}")
    print("PASS" if ok else "FAIL: a metric got worse or a simulated result changed")
    return 0 if ok else 1


if __name__ == "__main__":
    sys.exit(main())

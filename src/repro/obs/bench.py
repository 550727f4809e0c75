"""The bench registry: machine-readable perf artifacts and their gates.

``python -m repro bench`` runs one of seven bench modes, one
:class:`BenchSpec` each in :data:`SPECS`.  A spec names the mode's CLI
flag and checked-in artifact, its run function and headline printer,
its gate, the CLI overrides it honours, and the reduced shape
``obs equivalence`` runs when the artifact's own params are too big.
``bench``, ``bench --check/--update/--out`` and ``obs equivalence`` are
one loop each over this registry (:mod:`repro.obs.cli`).

Four modes are grids (:class:`Grid`): a cross product of axes, one cell
per point, per-scheme geomeans of cycles and PM bytes, and optionally
an amortization headline along one axis.  :func:`run_grid` runs any of
them through the one timed sweep task
:func:`repro.parallel.tasks.sweep_cell`.

``bench --check`` loads the artifact first, regenerates at the params
recorded in it, and gates: ±2% drift on cycles and PM bytes for the
grids, byte-identity modulo host timing for the curves and the
sustained run, and the simulator spot-check verdict for ``--model``.
The simulator is deterministic, so the drift threshold only absorbs
*intentional* model changes; anything above it must either be fixed or
explicitly re-baselined (``--update``) in the change that caused it.
"""

from __future__ import annotations

import itertools
import json
import os
import sys
import time
from dataclasses import asdict, dataclass
from functools import partial
from typing import Any, Callable, Dict, List, Optional, Sequence, Tuple

from repro.common.errors import ArtifactError
from repro.core.schemes import FIG8_SCHEMES
from repro.harness.metrics import geomean
from repro.model.features import CellSpec
from repro.model.fit import (
    DEFAULT_MAX_ERROR,
    DEFAULT_MODEL_PATH,
    _mix64,
    fit_model,
    geomean_error,
    train_cell,
)
from repro.model.predict import ARTIFACT as COST_MODEL_ARTIFACT
from repro.model.predict import CostModel
from repro.parallel import engine
from repro.parallel import tasks as partasks
from repro.service import bench as service_bench
from repro.service.curve import curve_to_table, format_curve, run_curve
from repro.service.sustained import format_sustained, run_sustained
from repro.shard import bench as shard_bench
from repro.workloads import KERNELS

#: Default artifact parameters: large enough to exercise drains, lazy
#: forcing and WPQ pressure, small enough for a per-push CI gate.
DEFAULT_NUM_OPS = 300
DEFAULT_VALUE_BYTES = 256
DEFAULT_SEED = 2023

#: Allowed relative drift of a grid's cycles / PM bytes before
#: ``bench --check`` fails.
DRIFT_THRESHOLD = 0.02

#: Bumped to 2 with the sustained-load release — the schema-breaking
#: release the ``max_retries`` removal schedule was pinned to.  Every
#: ``BENCH_*.json``, sustained and model-bench document carries it.
SCHEMA_VERSION = 2


# ----------------------------------------------------------------------
# artifact I/O
# ----------------------------------------------------------------------


def write_artifact(path: str, doc: Dict[str, Any]) -> None:
    """Write *doc* in the one artifact form every checked-in JSON uses:
    sorted keys, one-space indent, trailing newline."""
    directory = os.path.dirname(path)
    if directory:
        os.makedirs(directory, exist_ok=True)
    with open(path, "w") as fh:
        json.dump(doc, fh, indent=1, sort_keys=True)
        fh.write("\n")


def load_artifact(
    path: str,
    *,
    kind: Optional[str] = None,
    schema_version: Optional[int] = SCHEMA_VERSION,
    check: "Optional[Callable[[Dict[str, Any]], None]]" = None,
) -> Dict[str, Any]:
    """Read an artifact and check its ``kind`` and ``schema_version``.

    *check*, when given, validates the rest of the document and raises
    :class:`ArtifactError` (or a subclass).  Every failure — a missing
    or unreadable file, bytes that are not a JSON object, a wrong field
    — raises :class:`ArtifactError` naming the file and the field.
    """
    try:
        with open(path) as fh:
            doc = json.load(fh)
    except OSError as exc:
        raise ArtifactError(f"{path}: cannot read: {exc.strerror}") from None
    except ValueError as exc:
        raise ArtifactError(f"{path}: not a JSON document: {exc}") from None
    if not isinstance(doc, dict):
        raise ArtifactError(f"{path}: not a JSON object")
    for name, expected in (("kind", kind), ("schema_version", schema_version)):
        if doc.get(name) != expected:
            raise ArtifactError(
                f"{path}: field {name!r} is {doc.get(name)!r}, "
                f"expected {expected!r}"
            )
    if check is not None:
        try:
            check(doc)
        except ArtifactError as exc:
            raise type(exc)(f"{path}: {exc}") from None
    return doc


#: Keys that carry host wall-clock (never simulated numbers) at any
#: nesting depth of any artifact — bench cells (``host_ms``), bench and
#: model-bench documents and the cost model's training cells (``host``).
_HOST_KEYS = frozenset({"host", "host_ms"})


def strip_host(doc: Dict[str, Any]) -> Dict[str, Any]:
    """A deep copy of *doc* without any host-timing field, recursively.

    This is the comparison form for every determinism / equivalence
    check: two runs of the same sweep must be byte-identical *modulo*
    wall-clock.  Host timing lives only under the :data:`_HOST_KEYS`
    names, at any depth — top-level ``host`` blocks, per-cell
    ``host_ms``, and the cost model's per-training-cell ``host_ms`` —
    so one recursive sweep covers ``BENCH_*.json``,
    ``cost_model.json`` and ``bench --model`` documents alike.
    """

    def _strip(node: Any) -> Any:
        if isinstance(node, dict):
            return {
                key: _strip(value)
                for key, value in node.items()
                if key not in _HOST_KEYS
            }
        if isinstance(node, list):
            return [_strip(value) for value in node]
        return node

    return _strip(doc)


def _leaves(node: Any, prefix: str, out: Dict[str, Any]) -> Dict[str, Any]:
    if isinstance(node, dict):
        items = node.items()
    elif isinstance(node, list):
        items = enumerate(node)
    else:
        out[prefix] = node
        return out
    for key, value in items:
        _leaves(value, f"{prefix}.{key}" if prefix else str(key), out)
    return out


def flatten(doc: Any) -> Dict[str, Any]:
    """Leaf values of *doc* by dotted path (list items by index)."""
    return _leaves(doc, "", {})


def same(a: Dict[str, Any], b: Dict[str, Any], what: str) -> bool:
    """True when *a* == *b*; otherwise print up to 20 of the dotted
    paths where they differ, as ``what: path`` lines on stderr."""
    if a == b:
        return True
    fa, fb = flatten(a), flatten(b)
    missing = object()
    drift = [
        key
        for key in sorted(set(fa) | set(fb))
        if fa.get(key, missing) != fb.get(key, missing)
    ]
    for key in drift[:20]:
        print(f"{what}: {key}", file=sys.stderr)
    return False


# ----------------------------------------------------------------------
# gates: (fresh, pinned, path) -> ok; a gate without a pinned document
# judges the fresh one alone
# ----------------------------------------------------------------------


@dataclass(frozen=True)
class Drift:
    """One metric's movement against the baseline."""

    where: str  # "geomean/SLPMT" or "cells/hashtable/SLPMT"
    metric: str  # "cycles" | "pm_bytes"
    baseline: float
    current: float

    @property
    def ratio(self) -> float:
        return self.current / self.baseline if self.baseline else float("inf")

    def __str__(self) -> str:
        return (
            f"{self.where} {self.metric}: {self.baseline:,.0f} -> "
            f"{self.current:,.0f} ({(self.ratio - 1.0) * 100.0:+.2f}%)"
        )


@dataclass
class CheckResult:
    """Outcome of one ``bench --check`` comparison."""

    regressions: List[Drift]
    improvements: List[Drift]

    @property
    def ok(self) -> bool:
        return not self.regressions


def check_bench(current: Dict[str, Any], baseline: Dict[str, Any]) -> CheckResult:
    """Compare grid document *current* against *baseline*.

    A **regression** is a geomean or per-cell metric that grew beyond
    ``baseline * (1 + DRIFT_THRESHOLD)``; a metric that *shrank* past the
    same margin is reported as an improvement (gate still passes — but
    re-pin the baseline so the win is locked in).
    """
    if current["params"] != baseline["params"]:
        raise ValueError(
            "bench parameters differ from the baseline "
            f"({current['params']} vs {baseline['params']}); "
            "regenerate with matching parameters or --update the baseline"
        )
    regressions: List[Drift] = []
    improvements: List[Drift] = []

    def compare(where: str, metric: str, base_val: float, cur_val: float) -> None:
        drift = Drift(where, metric, base_val, cur_val)
        if cur_val > base_val * (1.0 + DRIFT_THRESHOLD):
            regressions.append(drift)
        elif cur_val < base_val * (1.0 - DRIFT_THRESHOLD):
            improvements.append(drift)

    for section in ("geomean", "cells"):
        for name, base in baseline[section].items():
            cur = current[section].get(name)
            if cur is None:
                continue
            for metric in ("cycles", "pm_bytes"):
                compare(f"{section}/{name}", metric, base[metric], cur[metric])
    return CheckResult(regressions=regressions, improvements=improvements)


def format_check(result: CheckResult) -> str:
    lines = [
        f"bench check (threshold ±{DRIFT_THRESHOLD * 100.0:.1f}%): "
        + ("PASS" if result.ok else "FAIL"),
    ]
    for drift in result.regressions:
        lines.append(f"  REGRESSION {drift}")
    for drift in result.improvements:
        lines.append(f"  improvement {drift} (consider --update)")
    if not result.regressions and not result.improvements:
        lines.append("  all metrics within threshold")
    return "\n".join(lines)


def drift_gate(
    fresh: Dict[str, Any], pinned: "Optional[Dict[str, Any]]", path: "Optional[str]"
) -> bool:
    """The grids' gate: ±:data:`DRIFT_THRESHOLD` on cycles and PM bytes."""
    if pinned is None:
        return True
    result = check_bench(fresh, pinned)
    print(format_check(result))
    return result.ok


def exact_gate(
    fresh: Dict[str, Any], pinned: "Optional[Dict[str, Any]]", path: "Optional[str]"
) -> bool:
    """Byte-identity modulo host timing; names up to 20 drifted keys."""
    if pinned is None:
        return True
    if not same(strip_host(fresh), strip_host(pinned), f"DRIFT vs {path}"):
        return False
    print(f"check: fresh run byte-identical to {path} (modulo host timing)")
    return True


def spot_gate(
    fresh: Dict[str, Any], pinned: "Optional[Dict[str, Any]]", path: "Optional[str]"
) -> bool:
    """``bench --model``'s gate: every simulator spot-check in bounds."""
    return bool(fresh["spot_check"]["ok"])


# ----------------------------------------------------------------------
# grids
# ----------------------------------------------------------------------


@dataclass(frozen=True)
class Axis:
    """One swept dimension of a :class:`Grid`."""

    param: str  # the document's ``params`` name, e.g. "batches"
    arg: str  # the cell function's keyword, e.g. "batch_size"
    fmt: str = "{}"  # this axis's part of the cell key, e.g. "b{}"


@dataclass(frozen=True)
class Amortization:
    """A headline ratio along one axis: per (workload, scheme), the
    cell *field* at the axis's smallest value over its largest, then
    the per-scheme geomean over workloads."""

    axis: str  # the axis's ``params`` name
    field: str  # the per-cell figure
    block: str  # "batch" -> "batch_lo"/"batch_hi" in the document
    label: str  # headline text


@dataclass(frozen=True)
class Grid:
    """A bench grid: cells over the cross product of *axes*.

    The workload and scheme axes come first; *defaults* holds every
    parameter (axes included) the document records under ``params``;
    each cell gets the axis values plus every non-axis parameter.
    """

    name: str
    cell: Callable[..., Dict[str, Any]]
    axes: Tuple[Axis, ...]
    defaults: Dict[str, Any]
    amortization: Optional[Amortization] = None


def _key(axes: Sequence[Axis], point: Sequence[Any]) -> str:
    return "/".join(axis.fmt.format(value) for axis, value in zip(axes, point))


def run_grid(
    grid: Grid,
    *,
    name: "Optional[str]" = None,
    jobs: int = 1,
    progress: "Optional[engine.ProgressFn]" = None,
    **overrides: Any,
) -> Dict[str, Any]:
    """Run *grid* and build its artifact document.

    Every cell is a self-contained deterministic simulation and the
    merge keeps cell order, so with *jobs* > 1 the simulated numbers
    are byte-identical to a serial run.  Host timing (per-cell
    ``host_ms`` and the top-level ``host`` block) is wall-clock and
    outside every gate (see :func:`strip_host`).
    """
    unknown = sorted(set(overrides) - set(grid.defaults))
    if unknown:
        raise TypeError(f"{grid.name} grid has no parameter(s) {unknown}")
    params = {**grid.defaults, **overrides}
    axis_params = [axis.param for axis in grid.axes]
    fixed = {k: v for k, v in params.items() if k not in axis_params}
    points = list(itertools.product(*(params[p] for p in axis_params)))
    keys = [_key(grid.axes, point) for point in points]
    descriptors = {
        key: dict(fixed, **{a.arg: v for a, v in zip(grid.axes, point)})
        for key, point in zip(keys, points)
    }
    t0 = time.perf_counter()
    results = partasks.run_sweep(
        grid.cell, descriptors, jobs=jobs, progress=progress
    )
    host_seconds = time.perf_counter() - t0
    cells: Dict[str, Any] = dict(zip(descriptors, results))
    scheme_at = axis_params.index("schemes")
    geomeans: Dict[str, Any] = {}
    for scheme in params["schemes"]:
        mine = [cells[k] for k, p in zip(keys, points) if p[scheme_at] == scheme]
        geomeans[scheme] = {
            metric: round(geomean(cell[metric] for cell in mine), 1)
            for metric in ("cycles", "pm_bytes")
        }
    doc: Dict[str, Any] = {
        "schema_version": SCHEMA_VERSION,
        "name": name or grid.name,
        "params": {
            k: list(v) if k in axis_params else v for k, v in params.items()
        },
        "cells": cells,
        "geomean": geomeans,
    }
    amort = grid.amortization
    if amort is not None:
        lo, hi = min(params[amort.axis]), max(params[amort.axis])
        block: Dict[str, Any] = {}
        for scheme in params["schemes"]:
            per_workload = {}
            for w in params["workloads"]:
                base = cells[_key(grid.axes, (w, scheme, lo))][amort.field]
                deep = cells[_key(grid.axes, (w, scheme, hi))][amort.field]
                per_workload[w] = round(base / deep, 3) if deep else 0.0
            block[scheme] = {
                f"{amort.block}_lo": lo,
                f"{amort.block}_hi": hi,
                "per_workload": per_workload,
                "geomean": round(geomean(per_workload.values()), 3),
            }
        doc["amortization"] = block
    doc["host"] = {
        "seconds": round(host_seconds, 3),
        "cells_per_sec": round(len(keys) / host_seconds, 3)
        if host_seconds > 0
        else 0.0,
        "jobs": jobs,
    }
    return doc


def _geomean_lines(doc: Dict[str, Any]) -> List[str]:
    return [
        f"{scheme:<8} geomean cycles={geo['cycles']:>14,.0f}  "
        f"pm_bytes={geo['pm_bytes']:>12,.0f}"
        for scheme, geo in doc["geomean"].items()
    ]


def format_grid(grid: Grid, doc: Dict[str, Any]) -> str:
    """Per-scheme geomeans, then the amortization headline if any."""
    lines = _geomean_lines(doc)
    amort = grid.amortization
    if amort is not None:
        fmt = next(a.fmt for a in grid.axes if a.param == amort.axis)
        for scheme, block in doc["amortization"].items():
            axis = (
                f"{amort.label} {fmt.format(block[amort.block + '_lo'])}->"
                f"{fmt.format(block[amort.block + '_hi'])}"
            )
            lines.append(
                f"{scheme:<8} {axis} amortization: "
                f"{block['geomean']:.2f}x geomean "
                + " ".join(
                    f"{w}={r:.2f}x" for w, r in block["per_workload"].items()
                )
            )
    return "\n".join(lines)


def ycsb_cell(
    *, workload: str, scheme: str, num_ops: int, value_bytes: int, seed: int
) -> Dict[str, Any]:
    """One ``BENCH_slpmt_ycsb.json`` cell: a YCSB-load kernel run."""
    from repro.harness.runner import cached_run

    res = cached_run(
        workload, scheme, num_ops=num_ops, value_bytes=value_bytes, seed=seed
    )
    return {
        "cycles": res.cycles,
        "pm_bytes": res.pm_bytes,
        "pm_log_bytes": res.pm_log_bytes,
        "pm_data_bytes": res.pm_data_bytes,
        "cycles_per_op": round(res.cycles_per_op, 3),
        "stats": json.loads(res.stats.to_json()),
    }


def contention_cell(
    *,
    workload: str,
    scheme: str,
    cores: int,
    theta: float,
    ops_per_core: int,
    num_keys: int,
    value_bytes: int,
    seed: int,
) -> Dict[str, Any]:
    """One ``BENCH_multicore.json`` cell: a shared-key contention run
    (see :func:`repro.harness.runner.run_contention`), deterministic
    from ``(workload, scheme, cores, θ, seed)``.  The contention
    counters ride along for the reproducibility check but are not
    gated."""
    from repro.harness.runner import run_contention

    res = run_contention(
        workload,
        scheme,
        cores=cores,
        theta=theta,
        ops_per_core=ops_per_core,
        num_keys=num_keys,
        value_bytes=value_bytes,
        seed=seed,
    )
    return {
        "cycles": res.cycles,
        "pm_bytes": res.pm_bytes,
        "conflicts": res.conflicts,
        "aborts": res.aborts,
        "commits": res.commits,
        "cycles_per_op": round(res.cycles_per_op, 3),
        "stats": json.loads(res.stats.to_json()),
    }


WORKLOAD_AXIS = Axis("workloads", "workload")
SCHEME_AXIS = Axis("schemes", "scheme")

YCSB_GRID = Grid(
    name="slpmt_ycsb",
    cell=ycsb_cell,
    axes=(WORKLOAD_AXIS, SCHEME_AXIS),
    defaults=dict(
        workloads=KERNELS,
        schemes=FIG8_SCHEMES,
        num_ops=DEFAULT_NUM_OPS,
        value_bytes=DEFAULT_VALUE_BYTES,
        seed=DEFAULT_SEED,
    ),
)

MULTICORE_GRID = Grid(
    name="multicore",
    cell=contention_cell,
    axes=(
        WORKLOAD_AXIS,
        SCHEME_AXIS,
        Axis("cores", "cores", "c{}"),
        Axis("thetas", "theta", "t{:g}"),
    ),
    # The FG baseline against the full design, over core counts and key
    # skews that bracket the no-contention and hot-key regimes.
    defaults=dict(
        workloads=("hashtable",),
        schemes=("FG", "SLPMT"),
        cores=(1, 2, 4),
        thetas=(0.0, 0.9),
        ops_per_core=100,
        num_keys=32,
        value_bytes=DEFAULT_VALUE_BYTES,
        seed=DEFAULT_SEED,
    ),
)

#: The group-commit grid (see :mod:`repro.service.bench`): commit-persist
#: cycles per committed write, batch 1 over the deepest batch.
SERVICE_GRID = Grid(
    name="service",
    cell=service_bench.service_cell,
    axes=(WORKLOAD_AXIS, SCHEME_AXIS, Axis("batches", "batch_size", "b{}")),
    defaults=service_bench.SERVICE_PARAMS,
    amortization=Amortization(
        "batches", "commit_persist_per_write", "batch", "commit-persist/write"
    ),
)

#: The cross-shard 2PC grid (see :mod:`repro.shard.bench`):
#: decision-persist cycles per cross-shard write, narrowest span over
#: the widest.
TWOPC_GRID = Grid(
    name="twopc",
    cell=shard_bench.twopc_cell,
    axes=(WORKLOAD_AXIS, SCHEME_AXIS, Axis("spans", "txn_keys", "k{}")),
    defaults=shard_bench.TWOPC_PARAMS,
    amortization=Amortization(
        "spans", "decide_persist_per_xwrite", "span", "decide-persist/xwrite"
    ),
)


# ----------------------------------------------------------------------
# the model tier
# ----------------------------------------------------------------------

#: ``bench --model`` default prediction grid: two orders of magnitude
#: denser than the training grid (120 op counts × 8 value sizes × the
#: 24 workload/scheme pairs = 23 040 cells vs 504 training cells) —
#: the campaign scale the simulator cannot sweep per push.
MODEL_OPS_GRID = tuple(range(25, 3001, 25))
MODEL_VALUE_BYTES_GRID = (16, 32, 64, 128, 256, 512, 1024, 2048)
#: Simulator spot-checks per ``bench --model`` run (seeded sample of
#: interpolation cells, each gated against ``--max-error``).
DEFAULT_SPOT_CHECKS = 6
#: Spot-checked cells stay at or below this op count so the audit costs
#: seconds, not the campaign the model exists to avoid.
SPOT_CHECK_OPS_CAP = 600

MODEL_BENCH_KIND = "model-bench"


def run_model_bench(
    *,
    name: str = "model",
    model_path: "Optional[str]" = None,
    workloads: "Sequence[str]" = KERNELS,
    schemes: "Sequence[str]" = FIG8_SCHEMES,
    ops_grid: "Sequence[int]" = MODEL_OPS_GRID,
    value_bytes_grid: "Sequence[int]" = MODEL_VALUE_BYTES_GRID,
    seed: int = DEFAULT_SEED,
    spot_checks: int = DEFAULT_SPOT_CHECKS,
    max_error: "Optional[float]" = None,
    jobs: int = 1,
    progress: "Optional[engine.ProgressFn]" = None,
) -> Dict[str, Any]:
    """Predict a campaign-scale grid from the fitted cost model, then
    audit a seeded sample of cells against the real simulator.

    The document combines both tiers: every grid cell's predicted
    cycles / PM bytes (cells outside the training range flagged
    ``extrapolated``), plus ``spot_check`` — fresh simulator runs of a
    deterministic hash-ranked sample of interpolation cells, each
    scored by relative error and gated against *max_error*.  One
    extrapolated cell is probed informationally (reported, never
    gated).  ``doc["spot_check"]["ok"]`` is the verdict.

    Everything except ``host`` is deterministic in (model artifact,
    grid, seed): prediction is fixed-order arithmetic and the sample is
    hash-ranked, so serial and ``--jobs N`` documents are byte-identical
    modulo :func:`strip_host`.
    """
    model_path = model_path or DEFAULT_MODEL_PATH
    max_error = DEFAULT_MAX_ERROR if max_error is None else max_error
    model = CostModel(load_artifact(model_path, **COST_MODEL_ARTIFACT))

    t0 = time.perf_counter()
    specs = [
        CellSpec(w, s, ops, vb)
        for w in workloads
        for s in schemes
        for ops in ops_grid
        for vb in value_bytes_grid
    ]
    cells: Dict[str, Any] = {}
    scheme_cycles: Dict[str, List[float]] = {s: [] for s in schemes}
    scheme_pm: Dict[str, List[float]] = {s: [] for s in schemes}
    extrapolated_count = 0
    for spec in specs:
        predicted = model.predict_cell(spec)
        cells[spec.key] = {
            "cycles": round(predicted["cycles"], 3),
            "pm_bytes": round(predicted["pm_bytes"], 3),
            "extrapolated": predicted["extrapolated"],
        }
        extrapolated_count += predicted["extrapolated"]
        scheme_cycles[spec.scheme].append(predicted["cycles"])
        scheme_pm[spec.scheme].append(predicted["pm_bytes"])
    model_seconds = time.perf_counter() - t0
    # Deep-extrapolation cells can clamp every phase to zero; keep the
    # per-scheme geomean defined by aggregating positive predictions
    # only (the count of excluded cells is visible via the cells block).
    geomeans = {
        scheme: {
            "cycles": round(
                geomean(v for v in scheme_cycles[scheme] if v > 0), 1
            ),
            "pm_bytes": round(
                geomean(v for v in scheme_pm[scheme] if v > 0), 1
            ),
        }
        for scheme in schemes
    }

    def ranked(extrapolated: bool) -> List[CellSpec]:
        # Seeded hash ranking of the cells on one side of the training
        # range, capped in op count, independent of iteration order.
        pool = sorted(
            (
                spec
                for spec in specs
                if cells[spec.key]["extrapolated"] == extrapolated
                and spec.num_ops <= SPOT_CHECK_OPS_CAP
            ),
            key=lambda spec: spec.key,
        )
        return [
            spec
            for _, spec in sorted(
                (_mix64(index + 1, seed), spec) for index, spec in enumerate(pool)
            )
        ]

    # The spot-check sample: interpolation cells only (the model is
    # contractually accurate there); one extrapolated probe on top.
    picks = ranked(False)[: max(0, spot_checks)]
    probe = next(iter(ranked(True)), None)

    audit_specs = picks + ([probe] if probe is not None else [])
    t1 = time.perf_counter()
    simulated = partasks.run_sweep(
        train_cell,
        {spec.key: dict(asdict(spec), seed=seed) for spec in audit_specs},
        jobs=jobs,
        progress=progress,
    )
    spot_seconds = time.perf_counter() - t1

    errors: List[float] = []
    audits: List[Dict[str, Any]] = []
    for spec, sim in zip(audit_specs, simulated):
        actual = sim["cycles"]
        predicted = cells[spec.key]["cycles"]
        rel = abs(predicted - actual) / actual if actual else 0.0
        errors.append(rel)
        audits.append(
            {
                "actual_cycles": actual,
                "predicted_cycles": predicted,
                "rel_error": round(rel, 6),
            }
        )
    errors = errors[: len(picks)]
    spot_check: Dict[str, Any] = {
        "cells": {spec.key: audit for spec, audit in zip(picks, audits)},
        "geomean_rel_error": round(geomean_error(errors), 6),
        "max_rel_error": round(max(errors), 6) if errors else 0.0,
        "max_error": max_error,
        "ok": (max(errors) if errors else 0.0) <= max_error,
    }
    if probe is not None:
        spot_check["extrapolated_probe"] = dict(audits[-1], cell=probe.key)

    return {
        "schema_version": SCHEMA_VERSION,
        "kind": MODEL_BENCH_KIND,
        "name": name,
        "params": {
            "workloads": list(workloads),
            "schemes": list(schemes),
            "ops_grid": list(ops_grid),
            "value_bytes_grid": list(value_bytes_grid),
            "seed": seed,
            "spot_checks": spot_checks,
            "max_error": max_error,
            "model_path": model_path,
        },
        # Provenance of the predictions: the artifact's own fit params
        # and held-out score (deterministic — included in strip_host
        # comparisons, unlike host timing).
        "model": {
            "params": model.doc["params"],
            "train_range": model.doc["train_range"],
            "holdout_geomean_rel_error": model.doc["validation"][
                "geomean_rel_error"
            ],
        },
        "cells": cells,
        "extrapolated_cells": extrapolated_count,
        "geomean": geomeans,
        "spot_check": spot_check,
        "host": {
            "model_seconds": round(model_seconds, 3),
            "spot_check_seconds": round(spot_seconds, 3),
            "cells_per_sec": round(len(specs) / model_seconds, 1)
            if model_seconds > 0
            else 0.0,
            "jobs": jobs,
        },
    }


def format_model_bench(doc: Dict[str, Any]) -> str:
    """Human summary of a ``bench --model`` document."""
    spot = doc["spot_check"]
    lines = [
        f"model bench: {len(doc['cells'])} cells predicted in "
        f"{doc['host']['model_seconds']:.3f}s "
        f"({doc['extrapolated_cells']} extrapolated, flagged)",
        *_geomean_lines(doc),
    ]
    lines.append(
        f"spot-check ({len(spot['cells'])} simulated cells, gate "
        f"≤{spot['max_error'] * 100:.1f}%): "
        + ("PASS" if spot["ok"] else "FAIL")
    )
    for key, cell in spot["cells"].items():
        lines.append(
            f"  {key:<34} rel error {cell['rel_error'] * 100:6.3f}%"
        )
    probe = spot.get("extrapolated_probe")
    if probe:
        lines.append(
            f"  {probe['cell']:<34} rel error "
            f"{probe['rel_error'] * 100:6.3f}% (extrapolated, not gated)"
        )
    return "\n".join(lines)


# ----------------------------------------------------------------------
# the registry
# ----------------------------------------------------------------------

def _grid_params(grid: Grid, doc: Dict[str, Any]) -> Dict[str, Any]:
    return dict({k: doc["params"][k] for k in grid.defaults}, name=doc["name"])


def _curve_params(doc: Dict[str, Any]) -> Dict[str, Any]:
    return dict(
        {k: doc[k] for k in ("schemes", "arrivals", "workload", "seed")},
        duration_cycles=doc.get("duration_cycles"),
    )


def _sustained_params(doc: Dict[str, Any]) -> Dict[str, Any]:
    # num_clients is derived (populations × clients_per_population).
    return {k: v for k, v in doc["params"].items() if k != "num_clients"}


@dataclass(frozen=True)
class BenchSpec:
    """One ``bench`` mode and everything its gates need."""

    name: str
    #: ``bench`` / ``obs equivalence`` flag; ``None`` for the default.
    flag: Optional[str]
    help: str
    run: Callable[..., Dict[str, Any]]
    headline: Callable[[Dict[str, Any]], str]
    gate: Callable[[Dict[str, Any], Optional[Dict[str, Any]], Optional[str]], bool]
    #: ``bench`` CLI dest -> run keyword, for every override honoured.
    overrides: Dict[str, str]
    #: Checked-in artifact path; ``{name}`` expands to ``--name``.
    artifact: Optional[str] = None
    kind: Optional[str] = None
    schema_version: Optional[int] = SCHEMA_VERSION
    #: The run keywords an artifact records (``--check`` and
    #: ``obs equivalence`` regenerate there).
    params: "Optional[Callable[[Dict[str, Any]], Dict[str, Any]]]" = None
    #: ``obs equivalence`` proofs — (label, run function, kwargs) — at
    #: a reduced shape, for modes whose artifact params are too big;
    #: empty means one proof at the artifact's params, also compared
    #: against the artifact.
    reduced: Tuple[Tuple[str, Callable[..., Dict[str, Any]], Dict[str, Any]], ...] = ()
    #: Whether ``obs equivalence`` offers this mode.
    equivalence: bool = True
    #: Renders the artifact's companion table (``<stem>.tsv``), written
    #: next to it by ``--update``.
    table: "Optional[Callable[[Dict[str, Any]], str]]" = None

    def path(self, name: "Optional[str]" = None) -> str:
        """The artifact path, for ``--name`` *name* if given."""
        return str(self.artifact).format(name=name or self.name)

    def load(self, path: str) -> Tuple[Dict[str, Any], Dict[str, Any]]:
        """The artifact at *path* and the run keywords it records."""
        doc = load_artifact(
            path, kind=self.kind, schema_version=self.schema_version
        )
        try:
            return doc, self.params(doc)
        except (KeyError, TypeError) as exc:
            raise ArtifactError(f"{path}: missing field {exc}") from None


def _grid_spec(grid: Grid, flag: "Optional[str]", help: str, **overrides: str) -> BenchSpec:
    return BenchSpec(
        name=grid.name,
        flag=flag,
        help=help,
        run=partial(run_grid, grid),
        headline=partial(format_grid, grid),
        gate=drift_gate,
        overrides=dict(name="name", seed="seed", **overrides),
        artifact="BENCH_{name}.json",
        params=partial(_grid_params, grid),
    )


#: The sustained shape ``obs equivalence --sustained`` proves: 3
#: populations whose final windows straddle the horizon (300000 / 8192
#: = 36.6 windows), so the merge is tested on misaligned tails.
SUSTAINED_EQUIVALENCE = dict(
    populations=3,
    clients_per_population=3,
    duration_cycles=300_000,
    window_cycles=8192,
    arrival_cycles=2500,
    num_keys=48,
    locking=True,
)

#: The model pipeline ``obs equivalence --model`` proves: a reduced
#: training grid fit, and a reduced ``bench --model`` grid against the
#: checked-in cost model.
MODEL_FIT_EQUIVALENCE = dict(
    workloads=("hashtable", "rbtree"),
    schemes=("FG", "SLPMT"),
    ops_grid=(40, 80, 120, 160),
    value_bytes_grid=(64, 128),
)
MODEL_BENCH_EQUIVALENCE = dict(
    ops_grid=tuple(range(50, 301, 50)),
    value_bytes_grid=(64, 128, 256),
    spot_checks=3,
)

SPECS: Dict[str, BenchSpec] = {
    spec.name: spec
    for spec in (
        _grid_spec(
            YCSB_GRID, None, "",
            ops="num_ops", value_bytes="value_bytes",
        ),
        _grid_spec(
            MULTICORE_GRID, "--multicore",
            "sweep the shared-key contention grid (workload × scheme × "
            "cores × θ) instead of the single-core scheme grid",
            ops="ops_per_core", value_bytes="value_bytes",
            cores="cores", thetas="thetas",
        ),
        _grid_spec(
            SERVICE_GRID, "--service",
            "sweep the transaction-service grid (workload × scheme × "
            "group-commit batch size)",
            duration="duration_cycles", target_load="target_load",
        ),
        _grid_spec(
            TWOPC_GRID, "--twopc",
            "sweep the cross-shard 2PC grid (workload × scheme × "
            "transaction span at a fixed shard count)",
            spans="spans",
        ),
        BenchSpec(
            name="curves",
            flag="--curves",
            help="sweep arrival rates per scheme: the throughput-vs-"
            "latency curve artifacts (benchmarks/results/"
            "curve_service.json + .tsv)",
            run=run_curve,
            headline=format_curve,
            gate=exact_gate,
            overrides=dict(seed="seed", duration="duration_cycles"),
            artifact="benchmarks/results/curve_service.json",
            kind="curve",
            schema_version=None,
            params=_curve_params,
            equivalence=False,
            table=curve_to_table,
        ),
        BenchSpec(
            name="sustained",
            flag="--sustained",
            help="run the campaign-scale sharded-population deployment "
            "(duration mode, ~1M requests): "
            "benchmarks/results/sustained_service.json",
            run=run_sustained,
            headline=format_sustained,
            gate=exact_gate,
            overrides=dict(
                seed="seed",
                duration="duration_cycles",
                target_load="target_load",
            ),
            artifact="benchmarks/results/sustained_service.json",
            kind="sustained",
            params=_sustained_params,
            reduced=(("sustained", run_sustained, SUSTAINED_EQUIVALENCE),),
        ),
        BenchSpec(
            name="model",
            flag="--model",
            help="predict the campaign-scale grid from the fitted cost "
            "model (benchmarks/results/cost_model.json) and spot-check a "
            "seeded sample against the real simulator; exits 1 if any "
            "spot-check exceeds --max-error",
            run=run_model_bench,
            headline=format_model_bench,
            gate=spot_gate,
            overrides=dict(
                name="name",
                seed="seed",
                model_path="model_path",
                spot_checks="spot_checks",
                max_error="max_error",
            ),
            reduced=(
                ("model fit", fit_model, MODEL_FIT_EQUIVALENCE),
                ("bench --model", run_model_bench, MODEL_BENCH_EQUIVALENCE),
            ),
        ),
    )
}

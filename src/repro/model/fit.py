"""Fit the per-phase cost model over a seeded simulator training grid.

One linear model per obs phase bucket per (workload, scheme) pair,
regressed over the :mod:`repro.model.features` vectors of a real
simulator grid (deterministic least squares — no RNG anywhere in the
fit, and none at predict time).  The resulting document is the
versioned ``benchmarks/results/cost_model.json`` artifact:

* per-pair ``phase_coefficients`` (one vector per profiler phase, keys
  in exact lockstep with :data:`repro.obs.profiler.PHASES`) plus a
  ``pm_bytes`` model and per-phase RMS residuals;
* the full training-grid observations (simulated phase buckets), so a
  refit can be byte-compared against the artifact;
* the held-out validation block (per-cell and geomean relative error).

Held-out cells never enter the fit: a deterministic hash-ranked subset
of the (num_ops, value_bytes) grid points is reserved per
``holdout_seed`` — the CI nightly rotates that seed, re-proving the
error bound on a different split each night.

Everything serialised is either an integer, a float produced by IEEE
+-*-/ and ``math.sqrt`` in fixed order, or rounded — so serial fits,
``--jobs N`` fits and cross-host refits are byte-identical (host block
excluded, see :func:`repro.obs.bench.strip_host`).
"""

from __future__ import annotations

import math
import time
from dataclasses import asdict
from typing import Any, Dict, List, Optional, Sequence, Tuple

from repro.core.schemes import FIG8_SCHEMES
from repro.model.features import (
    FEATURE_NAMES,
    CellSpec,
    feature_vector,
    statics,
)
from repro.model.linalg import lstsq, predict_row, rms_residual
from repro.obs.profiler import PHASES, CycleProfiler
from repro.parallel import engine
from repro.parallel.tasks import run_sweep
from repro.workloads import KERNELS

SCHEMA_VERSION = 1
KIND = "cost-model"

#: The checked-in artifact.
DEFAULT_MODEL_PATH = "benchmarks/results/cost_model.json"

#: Default training grid: the bench scheme grid over size points that
#: bracket the BENCH_slpmt_ycsb.json operating point (300 ops / 256 B).
DEFAULT_OPS_GRID = (40, 80, 120, 160, 200, 240, 300)
DEFAULT_VALUE_BYTES_GRID = (64, 128, 256)
DEFAULT_SEED = 2023
DEFAULT_HOLDOUT_SEED = 2023
#: Fraction of (ops, value_bytes) grid points reserved for validation.
HOLDOUT_FRACTION = 0.25
#: The hard validation gate (geomean total-cycles relative error).
DEFAULT_MAX_ERROR = 0.05


def _mix64(value: int, seed: int) -> int:
    """Deterministic 64-bit mixer (same construction as the signature
    hashes) — the holdout ranking must never depend on Python's RNG."""
    x = (value ^ (seed * 0x9E3779B97F4A7C15)) & 0xFFFFFFFFFFFFFFFF
    x ^= x >> 30
    x = (x * 0xBF58476D1CE4E5B9) & 0xFFFFFFFFFFFFFFFF
    x ^= x >> 27
    x = (x * 0x94D049BB133111EB) & 0xFFFFFFFFFFFFFFFF
    x ^= x >> 31
    return x


def holdout_points(
    ops_grid: Sequence[int],
    value_bytes_grid: Sequence[int],
    holdout_seed: int,
) -> List[Tuple[int, int]]:
    """The held-out (num_ops, value_bytes) grid points for a seed.

    Hash-ranked selection: every point gets a deterministic 64-bit
    score from ``holdout_seed``; the lowest-scored quarter (at least
    one) is held out.  Rotating the seed rotates the split without any
    library-RNG stability assumptions.
    """
    points = sorted(
        (ops, vb) for ops in ops_grid for vb in value_bytes_grid
    )
    k = max(1, round(len(points) * HOLDOUT_FRACTION))
    scored = sorted(
        (_mix64(index + 1, holdout_seed), point)
        for index, point in enumerate(points)
    )
    return sorted(point for _, point in scored[:k])


def run_training_grid(
    *,
    workloads: Sequence[str] = KERNELS,
    schemes: Sequence[str] = FIG8_SCHEMES,
    ops_grid: Sequence[int] = DEFAULT_OPS_GRID,
    value_bytes_grid: Sequence[int] = DEFAULT_VALUE_BYTES_GRID,
    seed: int = DEFAULT_SEED,
    jobs: int = 1,
    progress: "Optional[engine.ProgressFn]" = None,
) -> Dict[str, Dict[str, Any]]:
    """Simulate every training cell (with the profiler attached).

    Returns ``cell key -> {cycles, pm_bytes, phases, host_ms}``;
    byte-identical between serial and ``--jobs N`` runs modulo
    ``host_ms`` (ordered merge, deterministic simulations).
    """
    specs = [
        CellSpec(w, s, ops, vb)
        for w in workloads
        for s in schemes
        for ops in ops_grid
        for vb in value_bytes_grid
    ]
    cells = {spec.key: dict(asdict(spec), seed=seed) for spec in specs}
    results = run_sweep(train_cell, cells, jobs=jobs, progress=progress)
    return dict(zip(cells, results))


def train_cell(
    *, workload: str, scheme: str, num_ops: int, value_bytes: int, seed: int
) -> Dict[str, Any]:
    """One cost-model training/validation cell: a profiled simulator run.

    Returns the phase buckets the fitter regresses against (they
    exactly partition ``cycles``) plus the totals the validator gates
    on.  Deterministic from its arguments.
    """
    from repro.core.schemes import scheme_by_name
    from repro.harness.runner import run_workload

    profiler = CycleProfiler()
    res = run_workload(
        workload,
        scheme_by_name(scheme),
        num_ops=num_ops,
        value_bytes=value_bytes,
        seed=seed,
        profiler=profiler,
    )
    return {
        "cycles": res.cycles,
        "pm_bytes": res.pm_bytes,
        "phases": {p: profiler.phase_cycles.get(p, 0) for p in PHASES},
    }


def _fit_pair(
    specs: List[CellSpec],
    cells: Dict[str, Dict[str, Any]],
    train_points: List[Tuple[int, int]],
) -> Dict[str, Any]:
    """Fit one (workload, scheme) pair's per-phase + pm_bytes models."""
    train_specs = [
        spec for spec in specs if (spec.num_ops, spec.value_bytes) in train_points
    ]
    rows = [feature_vector(spec) for spec in train_specs]
    phase_coefficients: Dict[str, List[float]] = {}
    residuals: Dict[str, float] = {}
    for phase in PHASES:
        targets = [
            float(cells[spec.key]["phases"][phase]) for spec in train_specs
        ]
        if any(targets):
            coeffs = lstsq(rows, targets)
        else:
            # A phase this pair never exercises fits to exact zeros —
            # cheaper, and predictions stay exactly zero.
            coeffs = [0.0] * len(FEATURE_NAMES)
        phase_coefficients[phase] = coeffs
        residuals[phase] = round(rms_residual(coeffs, rows, targets), 3)
    pm_targets = [float(cells[spec.key]["pm_bytes"]) for spec in train_specs]
    pm_coefficients = lstsq(rows, pm_targets)
    return {
        "phase_coefficients": phase_coefficients,
        "pm_bytes_coefficients": pm_coefficients,
        "residuals": residuals,
        "pm_bytes_residual": round(
            rms_residual(pm_coefficients, rows, pm_targets), 3
        ),
        "statics": statics(train_specs[0]),
    }


def geomean_error(errors: Sequence[float]) -> float:
    """Geometric-mean relative error: ``exp(mean(log1p(e))) - 1``.

    Robust to exact-zero cells (a plain geomean would collapse); always
    rounded by callers before serialisation so the one libm call in the
    model pipeline can never perturb artifact bytes.
    """
    if not errors:
        return 0.0
    return math.expm1(
        sum(math.log1p(e) for e in errors) / len(errors)
    )


def fit_model(
    *,
    workloads: Sequence[str] = KERNELS,
    schemes: Sequence[str] = FIG8_SCHEMES,
    ops_grid: Sequence[int] = DEFAULT_OPS_GRID,
    value_bytes_grid: Sequence[int] = DEFAULT_VALUE_BYTES_GRID,
    seed: int = DEFAULT_SEED,
    holdout_seed: int = DEFAULT_HOLDOUT_SEED,
    jobs: int = 1,
    progress: "Optional[engine.ProgressFn]" = None,
    training_cells: "Optional[Dict[str, Dict[str, Any]]]" = None,
) -> Dict[str, Any]:
    """Run the grid (unless *training_cells* is supplied), fit, validate.

    Returns the full ``cost_model.json`` document.  The caller applies
    the ``--max-error`` gate to ``doc["validation"]``.
    """
    t0 = time.perf_counter()
    if training_cells is None:
        training_cells = run_training_grid(
            workloads=workloads,
            schemes=schemes,
            ops_grid=ops_grid,
            value_bytes_grid=value_bytes_grid,
            seed=seed,
            jobs=jobs,
            progress=progress,
        )
    held = holdout_points(ops_grid, value_bytes_grid, holdout_seed)
    all_points = sorted(
        (ops, vb) for ops in ops_grid for vb in value_bytes_grid
    )
    train_points = [p for p in all_points if p not in held]

    models: Dict[str, Any] = {}
    validation_cells: Dict[str, Any] = {}
    per_pair_errors: Dict[str, List[float]] = {}
    for workload in workloads:
        for scheme in schemes:
            specs = [
                CellSpec(workload, scheme, ops, vb)
                for ops, vb in all_points
            ]
            pair = specs[0].pair
            fitted = _fit_pair(specs, training_cells, train_points)
            models[pair] = fitted
            # Score the held-out cells with the freshly fitted pair.
            for ops, vb in held:
                spec = CellSpec(workload, scheme, ops, vb)
                row = feature_vector(spec)
                predicted_phases = {
                    phase: max(
                        0.0,
                        predict_row(
                            fitted["phase_coefficients"][phase], row
                        ),
                    )
                    for phase in PHASES
                }
                predicted = sum(predicted_phases.values())
                actual_cell = training_cells[spec.key]
                actual = actual_cell["cycles"]
                rel = abs(predicted - actual) / actual if actual else 0.0
                phase_errors = {}
                for phase in PHASES:
                    actual_phase = actual_cell["phases"][phase]
                    if actual_phase:
                        phase_errors[phase] = round(
                            abs(predicted_phases[phase] - actual_phase)
                            / actual_phase,
                            6,
                        )
                validation_cells[spec.key] = {
                    "actual_cycles": actual,
                    "predicted_cycles": round(predicted, 3),
                    "rel_error": round(rel, 6),
                    "phase_errors": phase_errors,
                }
                per_pair_errors.setdefault(pair, []).append(rel)

    all_errors = [e for errs in per_pair_errors.values() for e in errs]
    validation = {
        "holdout_seed": holdout_seed,
        "holdout_points": [list(p) for p in held],
        "cells": validation_cells,
        "geomean_rel_error": round(geomean_error(all_errors), 6),
        "max_rel_error": round(max(all_errors), 6) if all_errors else 0.0,
        "per_pair": {
            pair: {
                "geomean_rel_error": round(geomean_error(errs), 6),
                "max_rel_error": round(max(errs), 6),
            }
            for pair, errs in sorted(per_pair_errors.items())
        },
    }
    host_seconds = time.perf_counter() - t0
    return {
        "schema_version": SCHEMA_VERSION,
        "kind": KIND,
        "name": "cost_model",
        "phases": list(PHASES),
        "features": list(FEATURE_NAMES),
        "params": {
            "workloads": list(workloads),
            "schemes": list(schemes),
            "ops_grid": list(ops_grid),
            "value_bytes_grid": list(value_bytes_grid),
            "seed": seed,
            "holdout_seed": holdout_seed,
            "holdout_fraction": HOLDOUT_FRACTION,
        },
        "train_range": {
            "num_ops": [min(ops_grid), max(ops_grid)],
            "value_bytes": [min(value_bytes_grid), max(value_bytes_grid)],
        },
        "training_cells": training_cells,
        "models": models,
        "validation": validation,
        "host": {"seconds": round(host_seconds, 3), "jobs": jobs},
    }

"""Score a fitted model against fresh simulator runs of held-out cells.

``model fit`` already validates against the held-out slice of its own
training grid; this module is the *independent* check used by CI on the
checked-in artifact: re-simulate only the held-out cells (cheap) and
recompute the error table from scratch.  Any drift between simulator
and artifact — a model change without a refit, a stale artifact — shows
up as error growth and fails the ``--max-error`` gate.
"""

from __future__ import annotations

import time
from dataclasses import asdict
from typing import Any, Dict, List, Optional

from repro.model.features import CellSpec, feature_vector
from repro.model.fit import DEFAULT_MAX_ERROR, geomean_error, train_cell
from repro.model.linalg import predict_row
from repro.model.predict import CostModel
from repro.obs.profiler import PHASES
from repro.parallel import engine
from repro.parallel.tasks import run_sweep


def validate_model(
    model: CostModel,
    *,
    jobs: int = 1,
    progress: "Optional[engine.ProgressFn]" = None,
    max_error: float = DEFAULT_MAX_ERROR,
) -> Dict[str, Any]:
    """Fresh-simulate the artifact's held-out cells and score them.

    Returns a report document; ``report["ok"]`` is the gate verdict
    (geomean relative error ≤ *max_error*).
    """
    doc = model.doc
    params = doc["params"]
    held = [tuple(p) for p in doc["validation"]["holdout_points"]]
    specs = [
        CellSpec(w, s, ops, vb)
        for w in params["workloads"]
        for s in params["schemes"]
        for ops, vb in held
    ]
    t0 = time.perf_counter()
    results = run_sweep(
        train_cell,
        {spec.key: dict(asdict(spec), seed=params["seed"]) for spec in specs},
        jobs=jobs,
        progress=progress,
    )
    cells: Dict[str, Any] = {}
    errors: List[float] = []
    per_pair: Dict[str, List[float]] = {}
    for spec, simulated in zip(specs, results):
        predicted = model.predict_cell(spec)
        actual = simulated["cycles"]
        rel = (
            abs(predicted["cycles"] - actual) / actual if actual else 0.0
        )
        row = feature_vector(spec)
        coeffs = doc["models"][spec.pair]["phase_coefficients"]
        phase_errors = {}
        for phase in PHASES:
            actual_phase = simulated["phases"][phase]
            if actual_phase:
                predicted_phase = max(0.0, predict_row(coeffs[phase], row))
                phase_errors[phase] = round(
                    abs(predicted_phase - actual_phase) / actual_phase, 6
                )
        cells[spec.key] = {
            "actual_cycles": actual,
            "predicted_cycles": round(predicted["cycles"], 3),
            "rel_error": round(rel, 6),
            "phase_errors": phase_errors,
        }
        errors.append(rel)
        per_pair.setdefault(spec.pair, []).append(rel)
    geomean = geomean_error(errors)
    return {
        "kind": "cost-model-validation",
        "holdout_points": [list(p) for p in held],
        "cells": cells,
        "geomean_rel_error": round(geomean, 6),
        "max_rel_error": round(max(errors), 6) if errors else 0.0,
        "per_pair": {
            pair: round(geomean_error(errs), 6)
            for pair, errs in sorted(per_pair.items())
        },
        "max_error": max_error,
        "ok": geomean <= max_error,
        "host": {
            "seconds": round(time.perf_counter() - t0, 3),
            "jobs": jobs,
        },
    }


def format_validation(report: Dict[str, Any]) -> str:
    lines = [
        "cost model held-out validation "
        f"(gate ≤{report['max_error'] * 100:.1f}% geomean): "
        + ("PASS" if report["ok"] else "FAIL"),
        f"  geomean rel error: {report['geomean_rel_error'] * 100:.3f}%  "
        f"max: {report['max_rel_error'] * 100:.3f}%  "
        f"({len(report['cells'])} held-out cells)",
    ]
    for pair, err in report["per_pair"].items():
        lines.append(f"  {pair:<20} geomean {err * 100:7.3f}%")
    return "\n".join(lines)

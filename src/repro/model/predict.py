"""Load a fitted cost model and predict grids in milliseconds.

Prediction is deterministic arithmetic only: a feature vector per cell,
one fixed-order dot product per phase, negatives clamped to zero, and
the total defined as the sum of the per-phase predictions — so the
phase-partition invariant (``sum(phases) == total``, every phase ≥ 0)
holds *by construction*, mirroring the profiler's exact partition of
``machine.now``.

Cells whose knobs fall outside the training range are still predicted
(linear models extrapolate) but flagged ``extrapolated`` so consumers
— and the spot-check sampler — can treat them with suspicion.
"""

from __future__ import annotations

from typing import Any, Dict, List, Sequence, Tuple

from repro.common.errors import ArtifactError
from repro.model.features import (
    FEATURE_NAMES,
    CellSpec,
    feature_vector,
)
from repro.model.fit import KIND, SCHEMA_VERSION
from repro.obs.profiler import PHASES


class ModelSchemaError(ArtifactError):
    """The artifact does not match this build's phases or features."""


def check_lockstep(doc: Dict[str, Any]) -> None:
    """Validate an artifact against the *current* profiler taxonomy.

    The phase list and every pair's coefficient keys must match
    :data:`repro.obs.profiler.PHASES` exactly — a phase added to the
    profiler makes stale artifacts (and stale fitters) fail loudly here
    instead of silently predicting zero for the new bucket.
    """
    if tuple(doc.get("phases", ())) != tuple(PHASES):
        raise ModelSchemaError(
            "artifact phases do not match the profiler taxonomy: "
            f"{list(doc.get('phases', ()))} vs {list(PHASES)} — refit "
            "the model against this build"
        )
    if tuple(doc.get("features", ())) != tuple(FEATURE_NAMES):
        raise ModelSchemaError(
            f"artifact features {list(doc.get('features', ()))} do not "
            f"match this build's {list(FEATURE_NAMES)} — refit"
        )
    n = len(FEATURE_NAMES)
    for pair, model in doc.get("models", {}).items():
        coeffs = model.get("phase_coefficients", {})
        # JSON round-trips sort keys, so lockstep means same *set* of
        # phases (a phase added to or removed from the profiler still
        # fails); the canonical order lives in doc["phases"] above.
        if sorted(coeffs) != sorted(PHASES):
            raise ModelSchemaError(
                f"{pair}: coefficient keys out of lockstep with PHASES "
                f"({sorted(coeffs)} vs {sorted(PHASES)})"
            )
        for phase, vector in coeffs.items():
            if len(vector) != n:
                raise ModelSchemaError(
                    f"{pair}/{phase}: {len(vector)} coefficients for "
                    f"{n} features"
                )
        if len(model.get("pm_bytes_coefficients", ())) != n:
            raise ModelSchemaError(
                f"{pair}: pm_bytes coefficient arity mismatch"
            )


class CostModel:
    """A fitted model ready to predict cells."""

    def __init__(self, doc: Dict[str, Any]) -> None:
        check_lockstep(doc)
        self.doc = doc
        self.train_range = doc["train_range"]
        # Pre-resolve the nonzero phase rows per pair: most pairs only
        # exercise a few phases, and skipping all-zero rows keeps big
        # grid predictions inside the <1s model-time budget.
        self._pair_rows: Dict[str, List[Tuple[str, List[float]]]] = {}
        self._pair_pm: Dict[str, List[float]] = {}
        for pair, model in doc["models"].items():
            rows = [
                (phase, coeffs)
                for phase, coeffs in model["phase_coefficients"].items()
                if any(coeffs)
            ]
            self._pair_rows[pair] = rows
            self._pair_pm[pair] = model["pm_bytes_coefficients"]

    @property
    def pairs(self) -> List[str]:
        return sorted(self._pair_rows)

    def extrapolated(self, spec: CellSpec) -> bool:
        ops_lo, ops_hi = self.train_range["num_ops"]
        vb_lo, vb_hi = self.train_range["value_bytes"]
        return not (
            ops_lo <= spec.num_ops <= ops_hi
            and vb_lo <= spec.value_bytes <= vb_hi
        )

    def predict_cell(self, spec: CellSpec) -> Dict[str, Any]:
        """Predict one cell: per-phase cycles, total, pm_bytes, flag.

        ``cycles`` is exactly ``sum(phases.values())`` (float, fixed
        summation order) and every phase is ≥ 0 — the partition
        invariant the property tests pin.
        """
        pair = spec.pair
        rows = self._pair_rows.get(pair)
        if rows is None:
            raise KeyError(
                f"no fitted model for {pair!r} "
                f"(have {', '.join(self.pairs)})"
            )
        row = feature_vector(spec)
        phases: Dict[str, float] = {}
        total = 0.0
        for phase, coeffs in rows:
            acc = 0.0
            for c, f in zip(coeffs, row):
                acc += c * f
            if acc > 0.0:
                phases[phase] = acc
                total += acc
        pm_acc = 0.0
        for c, f in zip(self._pair_pm[pair], row):
            pm_acc += c * f
        return {
            "phases": phases,
            "cycles": total,
            "pm_bytes": max(0.0, pm_acc),
            "extrapolated": self.extrapolated(spec),
        }

    def predict_grid(
        self,
        *,
        workloads: Sequence[str],
        schemes: Sequence[str],
        ops_grid: Sequence[int],
        value_bytes_grid: Sequence[int],
    ) -> Dict[str, Dict[str, Any]]:
        """Predict every cell of a grid; keys match bench cell naming."""
        out: Dict[str, Dict[str, Any]] = {}
        for workload in workloads:
            for scheme in schemes:
                for ops in ops_grid:
                    for vb in value_bytes_grid:
                        spec = CellSpec(workload, scheme, ops, vb)
                        out[spec.key] = self.predict_cell(spec)
        return out


#: What :func:`repro.obs.bench.load_artifact` checks a cost model for.
ARTIFACT = dict(kind=KIND, schema_version=SCHEMA_VERSION, check=check_lockstep)

"""Calibrated analytical cost model (DESIGN.md §13).

The simulator is bit-exact but pays full per-instruction cost for every
cell of a campaign grid.  This package provides the surrogate tier:

* :mod:`repro.model.features` — per-cell predictor vectors derived from
  cheap workload statics (op counts, value sizes, structure depth), no
  simulation required;
* :mod:`repro.model.linalg` — deterministic pure-Python least squares
  (normal equations + Gaussian elimination, no RNG, no numpy);
* :mod:`repro.model.fit` — fits one linear model per obs phase bucket
  per (workload, scheme) over a seeded training grid of real simulator
  runs and serialises the versioned ``cost_model.json`` artifact;
* :mod:`repro.model.predict` — checks the artifact against this build
  and predicts whole grids in milliseconds, flagging extrapolated
  cells;
* :mod:`repro.model.validate` — scores held-out cells (per-cell and
  geomean relative error) behind a hard ``--max-error`` gate.

The model predicts; the simulator audits.  ``bench --model`` combines
both: grid-scale prediction plus seeded simulator spot-checks.
"""

from repro.model.predict import CostModel
from repro.model.fit import fit_model, run_training_grid

__all__ = ["CostModel", "fit_model", "run_training_grid"]

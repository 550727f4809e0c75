"""Deterministic parallel sweep engine.

Every sweep in this repo — the bench grid, the crash-fuzz campaign, the
media-fault campaign — is an embarrassingly parallel loop over *cells*
whose results are merged into one report.  This package fans those
cells out over worker processes **without changing a single output
byte**: cells are self-contained task descriptors (plain picklable
scalars), per-cell RNGs are derived from the cell's own identity
exactly as the serial drivers derive them, and results are merged in
submission order, so the artifact a ``--jobs 8`` run writes is
byte-identical to the serial one (modulo the explicitly non-gated host
timing fields).

Layout:

* :mod:`repro.parallel.engine` — job-count resolution (``--jobs`` /
  ``REPRO_JOBS``), the ordered fan-out executor and the
  :class:`~repro.parallel.engine.WorkerCrash` error that propagates
  worker-process failures to a non-zero CLI exit;
* :mod:`repro.parallel.tasks` — top-level, spawn-safe task functions
  (one per sweep kind) that rebuild simulator state inside the worker.
"""

from repro.parallel.engine import WorkerCrash, resolve_jobs, run_tasks

__all__ = ["WorkerCrash", "resolve_jobs", "run_tasks"]

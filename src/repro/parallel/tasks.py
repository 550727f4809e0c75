"""Top-level, spawn-safe task functions for the parallel engine.

Each function is one sweep cell: it receives picklable arguments,
rebuilds whatever simulator state it needs inside the worker process,
and returns a picklable result for the ordered merge.  The heavy
imports happen lazily inside the cell functions so a freshly spawned
worker pays the import cost once, on its first cell.

Every task honours the ``REPRO_POISON_CELL`` environment variable: when
it names the cell's label, the task raises.  Spawned workers inherit
the parent's environment, so the crash-propagation regression tests can
poison exactly one cell of a parallel sweep and assert that the CLI
exits non-zero instead of writing a partial artifact.
"""

from __future__ import annotations

import os
import time
from typing import Any, Callable, Dict, List, Optional, Tuple

from repro.parallel import engine

#: Poison hook: a cell label that must crash (tests only).
POISON_ENV = "REPRO_POISON_CELL"


def _poison_check(label: str) -> None:
    if os.environ.get(POISON_ENV) == label:
        raise RuntimeError(f"cell {label!r} poisoned via {POISON_ENV}")


# ----------------------------------------------------------------------
# sweep cells (every bench grid, curve, sustained and model cell)
# ----------------------------------------------------------------------


def sweep_cell(
    *, cell: Callable[..., Dict[str, Any]], label: str, **kwargs: Any
) -> Dict[str, Any]:
    """One timed sweep cell: ``cell(**kwargs)`` plus its ``host_ms``.

    *cell* is a top-level function (pickled by reference) returning the
    cell's dict; *label* is the cell key.  ``host_ms`` is wall-clock and
    therefore non-deterministic by design; it is excluded from every
    gated comparison (see :func:`repro.obs.bench.strip_host`).
    """
    _poison_check(label)
    t0 = time.perf_counter()
    out = cell(**kwargs)
    out["host_ms"] = round((time.perf_counter() - t0) * 1000.0, 3)
    return out


def run_sweep(
    cell: Callable[..., Dict[str, Any]],
    cells: "Dict[str, Dict[str, Any]]",
    *,
    jobs: int = 1,
    progress: "Optional[engine.ProgressFn]" = None,
) -> List[Dict[str, Any]]:
    """``cell(**kwargs)`` for every ``label: kwargs`` of *cells*, each a
    :func:`sweep_cell` on the engine, results in *cells* order."""
    return engine.run_tasks(
        sweep_cell,
        [dict(kwargs, cell=cell, label=label) for label, kwargs in cells.items()],
        jobs=jobs,
        labels=list(cells),
        progress=progress,
    )


def runner_cell(*, key: "Tuple") -> Any:
    """Warm one :func:`repro.harness.runner.cached_run` memo entry.

    *key* is a :func:`repro.harness.runner.cache_key` tuple; the
    returned :class:`~repro.harness.runner.RunResult` is seeded into
    the parent's memo so the figure-regeneration benchmarks reuse it.
    """
    _poison_check(f"{key[0]}/{key[1]}")
    from repro.harness.runner import _cached

    return _cached(*key)


# ----------------------------------------------------------------------
# crash campaigns (every fuzz family)
# ----------------------------------------------------------------------


def campaign_cell(*, cell, **kwargs) -> Any:
    """One campaign cell of any fuzz family: its full crash-point sweep
    (the cell's type selects the family)."""
    _poison_check(str(cell))
    from repro.fuzz.kernel import run_cell

    return run_cell(cell, **kwargs)


"""Ordered process-pool fan-out for deterministic sweeps.

The engine runs one task function over a list of keyword-argument
descriptors.  ``jobs <= 1`` runs everything serially **through the same
task function** in-process — one code path, so the serial and parallel
flavours cannot diverge.  ``jobs > 1`` uses a spawn-context
:class:`~concurrent.futures.ProcessPoolExecutor` (spawn, not fork:
workers import a clean interpreter, so no inherited simulator state can
leak into a cell) and collects results **in submission order**, which
is what makes downstream merges byte-identical to the serial sweep.

A task that raises — in-process or in a worker — aborts the sweep with
:class:`WorkerCrash`, carrying the failing cell's label; the CLIs turn
that into a non-zero exit instead of a silent partial artifact.
"""

from __future__ import annotations

import multiprocessing
import os
import sys
from concurrent.futures import ProcessPoolExecutor
from typing import Any, Callable, Dict, List, Optional, Sequence

from repro.common.errors import ReproError

#: Environment override for the default job count (CLI ``--jobs`` wins).
JOBS_ENV = "REPRO_JOBS"


class WorkerCrash(ReproError):
    """A sweep cell failed (in-process or in a worker process)."""

    def __init__(self, label: str, cause: BaseException) -> None:
        super().__init__(
            f"sweep cell {label!r} crashed: {type(cause).__name__}: {cause}"
        )
        self.label = label
        self.cause = cause


def resolve_jobs(jobs: "Optional[int]" = None) -> int:
    """Resolve the effective worker count.

    Explicit *jobs* wins; otherwise the ``REPRO_JOBS`` environment
    variable; otherwise 1 (serial).  Values below 1 clamp to 1.
    """
    if jobs is None:
        raw = os.environ.get(JOBS_ENV, "").strip()
        if raw:
            try:
                jobs = int(raw)
            except ValueError:
                raise ReproError(f"{JOBS_ENV}={raw!r} is not an integer")
        else:
            jobs = 1
    return max(1, jobs)


ProgressFn = Callable[[int, int, str], None]


def print_progress(done: int, total: int, label: str) -> None:
    """The CLIs' :data:`ProgressFn`: one ``[done/total] label`` line on
    stderr per finished cell."""
    print(f"[{done}/{total}] {label}", file=sys.stderr)


def run_tasks(
    fn: Callable[..., Any],
    kwargs_list: "Sequence[Dict[str, Any]]",
    *,
    jobs: int = 1,
    labels: "Optional[Sequence[str]]" = None,
    progress: "Optional[ProgressFn]" = None,
) -> List[Any]:
    """Run ``fn(**kwargs)`` for every descriptor; results in input order.

    *fn* must be a top-level function and every descriptor picklable
    (spawned workers rebuild them by import + unpickle).  *progress*,
    when given, is called as ``progress(done, total, label)`` after each
    cell completes.  Raises :class:`WorkerCrash` on the first failing
    cell.
    """
    total = len(kwargs_list)
    if labels is None:
        labels = [f"cell {i}" for i in range(total)]
    if len(labels) != total:
        raise ReproError("labels and kwargs_list lengths differ")
    if jobs <= 1 or total <= 1:
        results: List[Any] = []
        for i, kwargs in enumerate(kwargs_list):
            try:
                results.append(fn(**kwargs))
            except Exception as exc:
                raise WorkerCrash(labels[i], exc) from exc
            if progress is not None:
                progress(i + 1, total, labels[i])
        return results

    ctx = multiprocessing.get_context("spawn")
    results = [None] * total
    with ProcessPoolExecutor(
        max_workers=min(jobs, total), mp_context=ctx
    ) as pool:
        futures = [pool.submit(fn, **kwargs) for kwargs in kwargs_list]
        for i, future in enumerate(futures):
            try:
                results[i] = future.result()
            except Exception as exc:
                for pending in futures[i + 1:]:
                    pending.cancel()
                raise WorkerCrash(labels[i], exc) from exc
            if progress is not None:
                progress(i + 1, total, labels[i])
    return results

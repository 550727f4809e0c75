"""Experiment harness: runners, metrics, report formatting."""

from repro.harness.metrics import (
    geomean,
    mean,
    speedup,
    traffic_ratio,
    traffic_reduction,
)
from repro.harness.report import format_series, format_table
from repro.harness.runner import RunResult, cached_run, run_workload

__all__ = [
    "FIGURES",
    "FigureResult",
    "regenerate",
    "RunResult",
    "run_workload",
    "cached_run",
    "speedup",
    "traffic_reduction",
    "traffic_ratio",
    "geomean",
    "mean",
    "format_table",
    "format_series",
]


def __getattr__(name):
    # The figure table imports the annotation compiler; load both only
    # when figures are regenerated.
    if name in ("FIGURES", "FigureResult", "regenerate"):
        from repro.harness import figures

        return getattr(figures, name)
    raise AttributeError(f"module {__name__!r} has no attribute {name!r}")

"""Observability: cycle attribution, histograms, traces, perf gates.

This package layers *passive* measurement over the simulator:

* :mod:`repro.obs.profiler` — scoped-span cycle attribution: every
  simulated cycle lands in exactly one named phase (execute,
  log-append, log-drain, commit-persist, wpq-stall, backoff,
  forced-lazy, abort, recovery), plus streaming histograms of
  per-transaction latency, commit cost, log-record size and WPQ
  occupancy;
* :mod:`repro.obs.histogram` — the log-scaled, fixed-memory,
  mergeable histogram those distributions are stored in;
* :mod:`repro.obs.trace` — Chrome/Perfetto ``trace_event`` JSON and
  JSONL export of :class:`~repro.core.tracing.Tracer` streams;
* :mod:`repro.obs.telemetry` — fixed-width simulated-cycle windows of
  throughput, latency quantiles, queue depth and shed/abort rates;
* :mod:`repro.obs.steady` — warm-up trimming, steady-state detection
  and throughput-vs-latency knee finding over those windows;
* :mod:`repro.obs.bench` — machine-readable ``BENCH_*.json`` perf
  artifacts and the ``bench --check`` regression gate;
* :mod:`repro.obs.cli` — the ``python -m repro obs`` / ``bench``
  front ends.

Everything here observes and never steers: attaching a profiler or a
tracer must leave every :class:`~repro.common.stats.SimStats` counter
and the machine clock bit-identical (the CI passivity gate proves it).

Set ``REPRO_OBS=1`` in the environment to auto-attach a tracer and a
profiler to every :class:`~repro.core.machine.Machine` at construction.
"""

from __future__ import annotations

import os

from repro.obs.histogram import LogHistogram
from repro.obs.profiler import PHASES, CycleProfiler
from repro.obs.steady import knee_index, steady_summary, steady_window_range
from repro.obs.telemetry import TelemetryWindows, merge_telemetry

#: Environment variable that switches default-on observability.
OBS_ENV_VAR = "REPRO_OBS"


def obs_env_enabled() -> bool:
    """Whether ``REPRO_OBS`` asks for default-on observability."""
    return os.environ.get(OBS_ENV_VAR, "") not in ("", "0", "false", "no")


def attach(machine, *, capacity: int = 10_000) -> None:
    """Attach a fresh tracer and profiler to *machine* (idempotent)."""
    from repro.core.tracing import Tracer

    if machine.tracer is None:
        machine.tracer = Tracer(capacity=capacity)
    if machine.profiler is None:
        profiler = CycleProfiler()
        profiler.bind(machine.now)
        machine.profiler = profiler


__all__ = [
    "LogHistogram",
    "CycleProfiler",
    "PHASES",
    "OBS_ENV_VAR",
    "TelemetryWindows",
    "merge_telemetry",
    "knee_index",
    "steady_summary",
    "steady_window_range",
    "obs_env_enabled",
    "attach",
]

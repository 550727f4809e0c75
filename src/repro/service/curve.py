"""Throughput-vs-latency curves: arrival-rate sweeps per scheme.

The serving papers this repo reproduces (Giles et al., Marathe et al.)
evaluate designs on load curves: sweep the offered arrival rate, quote
the *steady-state* sustained throughput against the tail latency at
each point, and read off the knee — the last load point that buys
throughput without paying the latency blow-up.  This module is that
pipeline over the PR 6 service:

1. one :func:`run_curve_cell` per (scheme, arrival rate): a full
   deterministic service run with a
   :class:`~repro.obs.telemetry.TelemetryWindows` attached;
2. warm-up trimming + steady-state detection per cell
   (:func:`repro.obs.steady.steady_summary` — every quoted number comes
   from the detected steady window range, and the range is reported);
3. :func:`repro.obs.steady.knee_index` across each scheme's load
   points, marked in the artifact.

Cells record at a fine base window, then deterministically rebin
(:meth:`~repro.obs.telemetry.TelemetryWindows.rebinned`) so every cell
analyses ~:data:`TARGET_WINDOWS` windows regardless of how far past the
arrival horizon an overloaded run drains — each analysed window then
holds enough completions for the windowed-mean convergence test.
Windows are a *per-cell* unit, which is fine because steady detection
and merging only ever happen within a cell.

Artifacts: a JSON document (full per-cell summaries + window series)
and a gnuplot-friendly table (one dataset block per scheme), written
under ``benchmarks/results/`` by ``python -m repro bench --curves`` and
checked in — the determinism suite re-derives them.
"""

from __future__ import annotations

from typing import Any, Dict, List, Optional, Sequence

from repro.obs.steady import curve_table, knee_index, steady_summary
from repro.obs.telemetry import TelemetryWindows

#: The two schemes every checked-in curve compares: the paper's
#: selective-logging design against the FG hardware baseline.
DEFAULT_CURVE_SCHEMES = ("FG", "SLPMT")

#: Offered-load sweep, as mean per-client interarrival cycles, from
#: light load to past saturation (descending gap = ascending load).
DEFAULT_CURVE_ARRIVALS = (4000, 2000, 1200, 800, 500)

#: Curve-cell service shape: small enough for CI, long enough that
#: every analysed window holds ~25-40 completions.  The batch size is
#: halved from the service default so group-commit ack bursts don't
#: dominate per-window variance (a burst of 8 against ~30 acks/window
#: is ±27% quantisation noise — more than the convergence tolerance).
CURVE_CLIENTS = 4
CURVE_REQUESTS = 80
CURVE_VALUE_BYTES = 32
CURVE_NUM_KEYS = 48
CURVE_THETA = 0.6
CURVE_BATCH_SIZE = 4


def curve_cell_config(
    scheme: str,
    arrival_cycles: int,
    *,
    workload: str = "hashtable",
    seed: int = 2023,
    duration_cycles: "Optional[int]" = None,
):
    """The :class:`~repro.service.server.ServiceConfig` of one cell.

    With *duration_cycles* the cell runs in duration mode: the fixed
    request count is ignored and arrivals stop at the horizon."""
    from repro.service.server import ServiceConfig
    from repro.service.tm import GroupCommitPolicy

    return ServiceConfig(
        workload=workload,
        scheme=scheme,
        num_clients=CURVE_CLIENTS,
        requests_per_client=CURVE_REQUESTS,
        value_bytes=CURVE_VALUE_BYTES,
        num_keys=CURVE_NUM_KEYS,
        theta=CURVE_THETA,
        mode="open",
        arrival_cycles=arrival_cycles,
        batch=GroupCommitPolicy(batch_size=CURVE_BATCH_SIZE),
        seed=seed,
        duration_cycles=duration_cycles,
    )


#: Recording granularity; cells rebin from here to ~TARGET_WINDOWS.
BASE_WINDOW_CYCLES = 1024
TARGET_WINDOWS = 10


def run_curve_cell(
    scheme: str,
    arrival_cycles: int,
    *,
    workload: str = "hashtable",
    seed: int = 2023,
    window_cycles: int = BASE_WINDOW_CYCLES,
    duration_cycles: "Optional[int]" = None,
) -> Dict[str, Any]:
    """One load point: run the service, trim warm-up, quote steady
    numbers.  Fully deterministic from the arguments.  In duration mode
    the straddled tail window past the horizon is trimmed before
    detection (see :func:`~repro.obs.steady.steady_summary`)."""
    from repro.service.server import run_service

    cfg = curve_cell_config(
        scheme, arrival_cycles, workload=workload, seed=seed,
        duration_cycles=duration_cycles,
    )
    fine = TelemetryWindows(window_cycles)
    res = run_service(cfg, telemetry=fine)
    telemetry = fine.rebinned(max(1, fine.num_windows // TARGET_WINDOWS))
    summary = steady_summary(telemetry, horizon_cycles=duration_cycles)
    latency = summary["latency"]
    cell = {
        "scheme": scheme,
        "workload": workload,
        "arrival_cycles": arrival_cycles,
        "offered_kcyc": round(1000.0 * CURVE_CLIENTS / arrival_cycles, 4),
        "requests": res.requests,
        "acked": res.acked,
        "shed": res.shed,
        "cycles": res.cycles,
        "throughput_kcyc": summary["throughput_kcyc"],
        "p50": latency["p50"],
        "p95": latency["p95"],
        "p99": latency["p99"],
        "steady": summary["steady"],
        "window_cycles": telemetry.window_cycles,
        "windows_total": summary["windows_total"],
        "window_lo": summary["window_lo"],
        "window_hi": summary["window_hi"],
        "latency": latency,
        "acked_series": telemetry.series("acked"),
    }
    if duration_cycles is not None:
        cell["duration_cycles"] = duration_cycles
    return cell


def run_curve(
    *,
    schemes: "Sequence[str]" = DEFAULT_CURVE_SCHEMES,
    arrivals: "Sequence[int]" = DEFAULT_CURVE_ARRIVALS,
    workload: str = "hashtable",
    seed: int = 2023,
    jobs: int = 1,
    duration_cycles: "Optional[int]" = None,
    progress=None,
) -> Dict[str, Any]:
    """The full curve document: every (scheme, arrival) cell, knees
    marked per scheme.

    With ``jobs > 1`` cells run on the parallel engine; results are
    collected in submission order, so the document is byte-identical to
    a serial sweep.  With *duration_cycles* every cell runs in duration
    mode instead of a fixed request count.
    """
    from repro.obs.bench import strip_host
    from repro.parallel.tasks import run_sweep

    cells = run_sweep(
        run_curve_cell,
        {
            f"curve/{scheme}/a{arrival}": {
                "scheme": scheme,
                "arrival_cycles": arrival,
                "workload": workload,
                "seed": seed,
                "duration_cycles": duration_cycles,
            }
            for scheme in schemes
            for arrival in arrivals
        },
        jobs=jobs,
        progress=progress,
    )
    # host_ms is wall-clock; everything else in a cell is simulated and
    # deterministic, and the artifact must stay byte-identical across
    # serial and --jobs runs.
    cells = strip_host(cells)
    rows: List[Dict[str, Any]] = []
    knees: Dict[str, Dict[str, Any]] = {}
    for scheme in schemes:
        points = [c for c in cells if c["scheme"] == scheme]
        # Ascending offered load, the order knee_index requires.
        points.sort(key=lambda c: c["offered_kcyc"])
        knee = knee_index(
            [p["throughput_kcyc"] for p in points],
            [p["p95"] for p in points],
        )
        for i, point in enumerate(points):
            point = dict(point)
            point["knee"] = i == knee
            rows.append(point)
        knees[scheme] = {
            "arrival_cycles": points[knee]["arrival_cycles"],
            "offered_kcyc": points[knee]["offered_kcyc"],
            "throughput_kcyc": points[knee]["throughput_kcyc"],
            "p95": points[knee]["p95"],
        }
    doc = {
        "kind": "curve",
        "workload": workload,
        "seed": seed,
        "schemes": list(schemes),
        "arrivals": list(arrivals),
        "knee_metric": "p95",
        "knees": knees,
        "points": rows,
    }
    if duration_cycles is not None:
        doc["duration_cycles"] = duration_cycles
    return doc


def curve_to_table(doc: Dict[str, Any]) -> str:
    """The gnuplot table form of a curve document."""
    return curve_table(doc["points"])


def format_curve(doc: Dict[str, Any]) -> str:
    """Human-readable curve summary (knee per scheme + the table)."""
    lines = [
        f"--- throughput-vs-latency curves ({doc['workload']}, "
        f"seed {doc['seed']}) ---"
    ]
    for scheme, knee in doc["knees"].items():
        lines.append(
            f"  {scheme:>6}: knee at arrival {knee['arrival_cycles']} "
            f"(offered {knee['offered_kcyc']:g}/kcyc) -> "
            f"{knee['throughput_kcyc']:g}/kcyc at p95 {knee['p95']}"
        )
    lines.append("")
    lines.append(curve_to_table(doc))
    return "\n".join(lines)

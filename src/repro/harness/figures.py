"""Library-level regeneration of every figure in the paper's evaluation.

Each ``figureN`` function runs the sweep behind the corresponding figure
and returns a :class:`FigureResult` carrying both the machine-readable
series (``data``) and the formatted tables (``text``).  The benchmark
suite (``benchmarks/``) and the command line (``python -m repro``) are
thin wrappers around these functions, so downstream users can regenerate
any experiment programmatically:

    from repro.harness.figures import figure8
    result = figure8(num_ops=500)
    print(result.text)
    print(result.data["speedup"]["hashtable"]["SLPMT"])
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Any, Dict, List

from repro.compiler.annotate import derive_policy
from repro.compiler.programs import kernel_functions
from repro.compiler.timing import measure_compile_time
from repro.core.schemes import FIG8_SCHEMES
from repro.harness.metrics import geomean, speedup, traffic_reduction
from repro.harness.report import format_series, format_table
from repro.harness.runner import cached_run
from repro.workloads import KERNELS, PMKV

#: Value-size sweep (Figures 10 and 11).
VALUE_SIZES = [16, 32, 64, 128, 256]

#: PM write-latency sweep in ns (Figure 12).
LATENCIES_NS = [500.0, 1100.0, 1700.0, 2300.0]


@dataclass
class FigureResult:
    """One regenerated figure: formatted text plus raw series."""

    name: str
    title: str
    text: str
    data: Dict[str, Any] = field(default_factory=dict)


def figure8(num_ops: int = 1000, value_bytes: int = 256) -> FigureResult:
    """Kernel speedups and traffic reductions over the FG baseline."""
    res = {
        (w, s): cached_run(w, s, num_ops=num_ops, value_bytes=value_bytes)
        for w in KERNELS
        for s in FIG8_SCHEMES
    }
    speedups: Dict[str, Dict[str, float]] = {}
    reductions: Dict[str, Dict[str, float]] = {}
    for w in KERNELS:
        base = res[(w, "FG")]
        speedups[w] = {s: speedup(base, res[(w, s)]) for s in FIG8_SCHEMES[1:]}
        reductions[w] = {
            s: traffic_reduction(base, res[(w, s)]) for s in FIG8_SCHEMES[1:]
        }
    geo = {
        s: geomean(speedups[w][s] for w in KERNELS) for s in FIG8_SCHEMES[1:]
    }

    left_rows = [[w] + [speedups[w][s] for s in FIG8_SCHEMES[1:]] for w in KERNELS]
    left_rows.append(["geomean"] + [geo[s] for s in FIG8_SCHEMES[1:]])
    right_rows = [
        [w] + [100.0 * reductions[w][s] for s in FIG8_SCHEMES[1:]] for w in KERNELS
    ]
    text = (
        format_table(
            "Figure 8 (left): speedup over the FG baseline",
            ["workload", *FIG8_SCHEMES[1:]],
            left_rows,
        )
        + "\n\n"
        + format_table(
            "Figure 8 (right): PM write-traffic reduction over FG (%)",
            ["workload", *FIG8_SCHEMES[1:]],
            right_rows,
        )
    )
    return FigureResult(
        name="fig08",
        title="Figure 8: kernel benchmarks",
        text=text,
        data={"speedup": speedups, "traffic_reduction": reductions, "geomean": geo},
    )


def figure9(num_ops: int = 1000, value_bytes: int = 256) -> FigureResult:
    """Line-granularity logging: SLPMT-line vs FG-line."""
    speedups: Dict[str, float] = {}
    extra_traffic: Dict[str, float] = {}
    for w in KERNELS:
        base = cached_run(w, "FG-line", num_ops=num_ops, value_bytes=value_bytes)
        full = cached_run(w, "SLPMT-line", num_ops=num_ops, value_bytes=value_bytes)
        speedups[w] = speedup(base, full)
        extra_traffic[w] = base.pm_bytes / full.pm_bytes - 1.0
    rows = [[w, speedups[w], 100.0 * extra_traffic[w]] for w in KERNELS]
    rows.append(
        ["geomean/avg", geomean(speedups.values()),
         100.0 * sum(extra_traffic.values()) / len(extra_traffic)]
    )
    return FigureResult(
        name="fig09",
        title="Figure 9: line-granularity logging",
        text=format_table(
            "Figure 9: SLPMT-line speedup over FG-line; FG-line extra traffic (%)",
            ["workload", "speedup", "extra traffic %"],
            rows,
        ),
        data={"speedup": speedups, "extra_traffic": extra_traffic},
    )


def figure10(num_ops: int = 1000) -> FigureResult:
    """Speedup sensitivity to the value size."""
    series: Dict[str, List[float]] = {}
    for w in KERNELS:
        series[w] = [
            speedup(
                cached_run(w, "FG", num_ops=num_ops, value_bytes=vb),
                cached_run(w, "SLPMT", num_ops=num_ops, value_bytes=vb),
            )
            for vb in VALUE_SIZES
        ]
    series["geomean"] = [
        geomean(series[w][i] for w in KERNELS) for i in range(len(VALUE_SIZES))
    ]
    return FigureResult(
        name="fig10",
        title="Figure 10: value-size sensitivity (speedup)",
        text=format_series(
            "Figure 10: SLPMT speedup over FG vs value size (bytes)",
            "value",
            VALUE_SIZES,
            series,
        ),
        data={"value_sizes": VALUE_SIZES, "speedup": series},
    )


def figure11(num_ops: int = 1000) -> FigureResult:
    """Traffic-saving sensitivity to the value size."""
    saved_kib: Dict[str, List[float]] = {}
    relative: Dict[str, List[float]] = {}
    for w in KERNELS:
        saved_kib[w] = []
        relative[w] = []
        for vb in VALUE_SIZES:
            base = cached_run(w, "FG", num_ops=num_ops, value_bytes=vb)
            full = cached_run(w, "SLPMT", num_ops=num_ops, value_bytes=vb)
            saved_kib[w].append((base.pm_bytes - full.pm_bytes) / 1024.0)
            relative[w].append(traffic_reduction(base, full))
    text = (
        format_series(
            "Figure 11: PM write traffic saved by SLPMT vs value size (KiB)",
            "value",
            VALUE_SIZES,
            saved_kib,
        )
        + "\n\n"
        + format_series(
            "Figure 11 (relative): traffic reduction (%)",
            "value",
            VALUE_SIZES,
            {w: [100.0 * r for r in rs] for w, rs in relative.items()},
        )
    )
    return FigureResult(
        name="fig11",
        title="Figure 11: value-size sensitivity (traffic)",
        text=text,
        data={"value_sizes": VALUE_SIZES, "saved_kib": saved_kib,
              "relative": relative},
    )


def figure12(num_ops: int = 1000, value_bytes: int = 256) -> FigureResult:
    """Speedup sensitivity to the PM write latency."""
    series: Dict[str, List[float]] = {}
    for w in KERNELS:
        series[w] = [
            speedup(
                cached_run(w, "FG", num_ops=num_ops, value_bytes=value_bytes,
                           pm_write_latency_ns=lat),
                cached_run(w, "SLPMT", num_ops=num_ops, value_bytes=value_bytes,
                           pm_write_latency_ns=lat),
            )
            for lat in LATENCIES_NS
        ]
    return FigureResult(
        name="fig12",
        title="Figure 12: write-latency sensitivity",
        text=format_series(
            "Figure 12: SLPMT speedup over FG vs PM write latency (ns)",
            "latency",
            LATENCIES_NS,
            series,
        ),
        data={"latencies_ns": LATENCIES_NS, "speedup": series},
    )


def figure13(num_ops: int = 1000, value_bytes: int = 256) -> FigureResult:
    """Compiler-inserted vs manual annotations + compile time."""
    fns_by_kernel = kernel_functions()
    all_fns = [fn for fns in fns_by_kernel.values() for fn in fns]
    policy, report = derive_policy(all_fns)

    manual: Dict[str, float] = {}
    compiled: Dict[str, float] = {}
    for w in KERNELS:
        base = cached_run(w, "FG", num_ops=num_ops, value_bytes=value_bytes)
        manual[w] = speedup(
            base, cached_run(w, "SLPMT", num_ops=num_ops, value_bytes=value_bytes)
        )
        compiled[w] = speedup(
            base,
            cached_run(w, "SLPMT", num_ops=num_ops, value_bytes=value_bytes,
                       policy=policy),
        )
    rows = [[w, manual[w], compiled[w]] for w in KERNELS]
    rows.append(["geomean", geomean(manual.values()), geomean(compiled.values())])

    timings = {
        kernel: measure_compile_time(kernel, fns, repeats=100)
        for kernel, fns in fns_by_kernel.items()
    }
    timing_rows = [
        [k, t.baseline_seconds * 1e6, t.optimized_seconds * 1e6, 100.0 * t.overhead]
        for k, t in timings.items()
    ]
    text = (
        format_table(
            "Figure 13 (left): speedup over FG, manual vs compiler annotation",
            ["workload", "manual", "compiler"],
            rows,
        )
        + "\n\n"
        + format_table(
            "Figure 13 (right): compile time without/with the analyses",
            ["kernel", "baseline (us)", "with passes (us)", "overhead %"],
            timing_rows,
        )
        + "\n\n"
        + (
            f"variable discovery: compiler found {report.found_count} of "
            f"{report.total_annotated} manually annotated variables "
            "(paper: 16 of 26)"
        )
    )
    return FigureResult(
        name="fig13",
        title="Figure 13: compiler effectiveness",
        text=text,
        data={
            "manual": manual,
            "compiler": compiled,
            "found": report.found_count,
            "annotated": report.total_annotated,
            "timings": timings,
            "policy": policy,
            "report": report,
        },
    )


def figure14(num_ops: int = 1000) -> FigureResult:
    """The PMKV application at 256-byte and 16-byte values."""
    data: Dict[str, Any] = {}
    parts: List[str] = []
    for vb in (256, 16):
        speedups: Dict[str, Dict[str, float]] = {}
        reductions: Dict[str, float] = {}
        rows = []
        for w in PMKV:
            base = cached_run(w, "FG", num_ops=num_ops, value_bytes=vb)
            speedups[w] = {
                s: speedup(base, cached_run(w, s, num_ops=num_ops, value_bytes=vb))
                for s in FIG8_SCHEMES[1:]
            }
            reductions[w] = traffic_reduction(
                base, cached_run(w, "SLPMT", num_ops=num_ops, value_bytes=vb)
            )
            rows.append(
                [w]
                + [speedups[w][s] for s in FIG8_SCHEMES[1:]]
                + [100.0 * reductions[w]]
            )
        parts.append(
            format_table(
                f"Figure 14: PMKV speedup over FG ({vb} B values); "
                "last column: SLPMT traffic reduction %",
                ["workload", *FIG8_SCHEMES[1:], "traffic red. %"],
                rows,
            )
        )
        data[f"speedup_{vb}"] = speedups
        data[f"traffic_reduction_{vb}"] = reductions
    return FigureResult(
        name="fig14",
        title="Figure 14: PMKV application",
        text="\n\n".join(parts),
        data=data,
    )


#: Registry for the CLI: figure name -> builder.
FIGURES = {
    "fig08": figure8,
    "fig09": figure9,
    "fig10": figure10,
    "fig11": figure11,
    "fig12": figure12,
    "fig13": figure13,
    "fig14": figure14,
}


def regenerate(name: str, num_ops: int = 1000) -> FigureResult:
    """Regenerate one figure by name ("fig08" .. "fig14")."""
    try:
        builder = FIGURES[name]
    except KeyError:
        raise KeyError(f"unknown figure {name!r}; known: {sorted(FIGURES)}") from None
    return builder(num_ops=num_ops)

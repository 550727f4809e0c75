"""Scheme shoot-out: regenerate a miniature Figure 8 at the terminal.

Runs every Table-II kernel under the six evaluated hardware designs
(FG baseline, FG+LG, FG+LZ, full SLPMT, and the prior-work ATOM / EDE)
on a ycsb-load stream and prints speedups and write-traffic reductions
relative to the baseline.

Run:  python examples/compare_schemes.py [ops]
"""

import sys

from repro.core.schemes import FIG8_SCHEMES as SCHEMES
from repro.harness import cached_run, format_table, geomean, speedup, traffic_reduction
from repro.workloads import KERNELS


def main(num_ops: int = 300) -> None:
    results = {
        (w, s): cached_run(w, s, num_ops=num_ops) for w in KERNELS for s in SCHEMES
    }

    rows = []
    for w in KERNELS:
        base = results[(w, "FG")]
        rows.append([w] + [speedup(base, results[(w, s)]) for s in SCHEMES[1:]])
    rows.append(
        ["geomean"]
        + [
            geomean(speedup(results[(w, "FG")], results[(w, s)]) for w in KERNELS)
            for s in SCHEMES[1:]
        ]
    )
    print(format_table(
        f"Speedup over the FG baseline ({num_ops} ycsb-load inserts, 256 B values)",
        ["workload", *SCHEMES[1:]],
        rows,
    ))
    print()

    rows = []
    for w in KERNELS:
        base = results[(w, "FG")]
        rows.append(
            [w]
            + [100 * traffic_reduction(base, results[(w, s)]) for s in SCHEMES[1:]]
        )
    print(format_table(
        "PM write-traffic reduction over FG (%; negative = more traffic)",
        ["workload", *SCHEMES[1:]],
        rows,
    ))


if __name__ == "__main__":
    main(int(sys.argv[1]) if len(sys.argv) > 1 else 300)

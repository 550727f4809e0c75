"""Command-line front end: figures and the fuzz campaign.

Usage::

    python -m repro list                 # available figures
    python -m repro fig08                # regenerate Figure 8 (1,000 ops)
    python -m repro fig12 --ops 300      # quicker, smaller run
    python -m repro all --ops 200        # everything
    python -m repro fuzz --budget 200 --seed 7   # crash-consistency fuzz
    python -m repro fuzz --replay r.json         # replay a reproducer
    python -m repro serve --scheme SLPMT --batch-size 8  # txn service bench
    python -m repro obs stats --scheme SLPMT     # cycle attribution dump
    python -m repro obs trace --out trace.json   # Perfetto trace export
    python -m repro bench --check                # perf-regression gate
    python -m repro model fit                    # fit the cost model
    python -m repro bench --model                # predict + spot-check
"""

from __future__ import annotations

import argparse
import sys
import time


def main(argv: "list[str] | None" = None) -> int:
    if argv is None:
        argv = sys.argv[1:]
    if argv and argv[0] == "fuzz":
        from repro.fuzz.cli import fuzz_main

        return fuzz_main(argv[1:])
    if argv and argv[0] == "obs":
        from repro.obs.cli import obs_main

        return obs_main(argv[1:])
    if argv and argv[0] == "bench":
        from repro.obs.cli import bench_main

        return bench_main(argv[1:])
    if argv and argv[0] == "serve":
        from repro.service.cli import serve_main

        return serve_main(argv[1:])
    if argv and argv[0] == "model":
        from repro.model.cli import model_main

        return model_main(argv[1:])
    from repro.harness.figures import FIGURES, regenerate

    parser = argparse.ArgumentParser(
        prog="python -m repro",
        description="Regenerate the SLPMT paper's evaluation figures.",
    )
    parser.add_argument(
        "figure",
        help="figure name (fig08..fig14), 'all', or 'list'",
    )
    parser.add_argument(
        "--ops",
        type=int,
        default=1000,
        help="ycsb-load inserts per run (paper: 1000)",
    )
    args = parser.parse_args(argv)

    if args.figure == "list":
        for name in sorted(FIGURES):
            print(name)
        return 0

    names = sorted(FIGURES) if args.figure == "all" else [args.figure]
    for name in names:
        if name not in FIGURES:
            parser.error(f"unknown figure {name!r}; try 'list'")
        start = time.perf_counter()
        result = regenerate(name, num_ops=args.ops)
        elapsed = time.perf_counter() - start
        print(result.text)
        print(f"[{result.name} regenerated in {elapsed:.1f}s "
              f"at {args.ops} ops/run]")
        print()
    return 0


if __name__ == "__main__":
    sys.exit(main())

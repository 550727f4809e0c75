"""``python -m repro model`` — fit, validate and query the cost model.

Three subcommands around ``benchmarks/results/cost_model.json``:

* ``fit`` — run the seeded training grid, fit, score the held-out
  cells and (gate permitting) write the artifact.  ``--check`` refits
  with the artifact's own parameters and fails on any byte difference
  (modulo host timing) — the staleness gate CI runs nightly with a
  rotating ``--holdout-seed``.
* ``validate`` — independently re-simulate the checked-in artifact's
  held-out cells and re-score them against ``--max-error``.
* ``predict`` — print one cell's predicted phase breakdown (pure
  arithmetic; flags extrapolation outside the training range).
"""

from __future__ import annotations

import argparse
import json
import os
import sys
from typing import List

from repro.model import fit as fit_mod
from repro.model.features import CellSpec
from repro.model.predict import (
    CostModel,
    ModelSchemaError,
    load_model,
    write_model,
)
from repro.model.validate import format_validation, validate_model
from repro.obs import bench as bench_mod
from repro.parallel.engine import WorkerCrash, print_progress, resolve_jobs


def _print_validation(doc) -> None:
    validation = doc["validation"]
    print(
        f"held-out validation (seed {validation['holdout_seed']}, "
        f"{len(validation['cells'])} cells): geomean rel error "
        f"{validation['geomean_rel_error'] * 100:.3f}%, max "
        f"{validation['max_rel_error'] * 100:.3f}%"
    )
    for pair, errs in validation["per_pair"].items():
        print(
            f"  {pair:<20} geomean {errs['geomean_rel_error'] * 100:7.3f}%"
            f"  max {errs['max_rel_error'] * 100:7.3f}%"
        )


def _cmd_fit(args: argparse.Namespace) -> int:
    jobs = resolve_jobs(args.jobs)
    fit_kwargs = dict(seed=args.seed, holdout_seed=args.holdout_seed)
    baseline = None
    if args.check:
        # The staleness gate refits with the *artifact's own*
        # parameters (grids and seeds) — CLI seed flags are ignored —
        # so any byte difference is a simulator/feature change, not a
        # parameter mismatch.
        try:
            baseline = load_model(args.out).doc
        except FileNotFoundError:
            print(
                f"model fit --check: no artifact at {args.out} "
                "(fit without --check first)",
                file=sys.stderr,
            )
            return 1
        except ModelSchemaError as exc:
            print(f"model fit --check: {exc}", file=sys.stderr)
            return 1
        params = baseline["params"]
        fit_kwargs = dict(
            workloads=tuple(params["workloads"]),
            schemes=tuple(params["schemes"]),
            ops_grid=tuple(params["ops_grid"]),
            value_bytes_grid=tuple(params["value_bytes_grid"]),
            seed=params["seed"],
            holdout_seed=params["holdout_seed"],
        )
    try:
        doc = fit_mod.fit_model(
            jobs=jobs,
            progress=print_progress if jobs > 1 else None,
            **fit_kwargs,
        )
    except WorkerCrash as exc:
        print(f"model fit failed: {exc}", file=sys.stderr)
        return 1
    _print_validation(doc)
    if args.check:
        fresh = bench_mod.strip_host(doc)
        pinned = bench_mod.strip_host(baseline)
        if fresh != pinned:
            drift = _diff_keys(fresh, pinned)
            for key in drift[:20]:
                print(
                    f"MODEL DRIFT vs {args.out}: {key}", file=sys.stderr
                )
            print(
                f"model fit --check: refit differs from {args.out} in "
                f"{len(drift)} keys — simulator or feature change "
                "without a refit; re-pin with `model fit`",
                file=sys.stderr,
            )
            return 1
        print(
            f"model fit --check: refit byte-identical to {args.out} "
            "(modulo host timing)"
        )
        return 0
    if doc["validation"]["geomean_rel_error"] > args.max_error:
        print(
            f"model fit: geomean rel error exceeds the "
            f"--max-error gate ({args.max_error * 100:.1f}%) — artifact "
            "not written",
            file=sys.stderr,
        )
        return 1
    out_dir = os.path.dirname(args.out)
    if out_dir:
        os.makedirs(out_dir, exist_ok=True)
    write_model(args.out, doc)
    print(f"wrote {args.out}")
    return 0


def _diff_keys(a, b) -> List[str]:
    from repro.obs.cli import _diff_keys as obs_diff_keys

    return obs_diff_keys(a, b)


def _cmd_validate(args: argparse.Namespace) -> int:
    try:
        model = load_model(args.model_path)
    except FileNotFoundError:
        print(
            f"model validate: no artifact at {args.model_path}",
            file=sys.stderr,
        )
        return 1
    except ModelSchemaError as exc:
        print(f"model validate: {exc}", file=sys.stderr)
        return 1
    jobs = resolve_jobs(args.jobs)
    try:
        report = validate_model(
            model,
            jobs=jobs,
            progress=print_progress if jobs > 1 else None,
            max_error=args.max_error,
        )
    except WorkerCrash as exc:
        print(f"model validate failed: {exc}", file=sys.stderr)
        return 1
    print(format_validation(report))
    if args.json:
        with open(args.json, "w") as fh:
            json.dump(report, fh, indent=1, sort_keys=True)
            fh.write("\n")
        print(f"wrote {args.json}")
    return 0 if report["ok"] else 1


def _cmd_predict(args: argparse.Namespace) -> int:
    try:
        model: CostModel = load_model(args.model_path)
    except FileNotFoundError:
        print(
            f"model predict: no artifact at {args.model_path}",
            file=sys.stderr,
        )
        return 1
    except ModelSchemaError as exc:
        print(f"model predict: {exc}", file=sys.stderr)
        return 1
    spec = CellSpec(args.workload, args.scheme, args.ops, args.value_bytes)
    try:
        predicted = model.predict_cell(spec)
    except KeyError as exc:
        print(f"model predict: {exc.args[0]}", file=sys.stderr)
        return 1
    flag = "  (EXTRAPOLATED — outside the training range)" \
        if predicted["extrapolated"] else ""
    print(f"{spec.key}{flag}")
    for phase, cycles in predicted["phases"].items():
        print(f"  {phase:<16} {cycles:>16,.1f}")
    print(f"  {'total cycles':<16} {predicted['cycles']:>16,.1f}")
    print(f"  {'pm_bytes':<16} {predicted['pm_bytes']:>16,.1f}")
    return 0


def model_main(argv: "List[str] | None" = None) -> int:
    parser = argparse.ArgumentParser(
        prog="python -m repro model",
        description="Fit / validate / query the analytical cost model.",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    p_fit = sub.add_parser(
        "fit", help="run the training grid, fit, gate, write the artifact"
    )
    p_fit.add_argument("--seed", type=int, default=fit_mod.DEFAULT_SEED)
    p_fit.add_argument(
        "--holdout-seed", type=int, default=fit_mod.DEFAULT_HOLDOUT_SEED,
        help="rotates which grid points are held out of the fit "
        "(CI nightly passes a date-derived seed)",
    )
    p_fit.add_argument(
        "--jobs", type=int, default=None,
        help="worker processes for the training grid (default REPRO_JOBS)",
    )
    p_fit.add_argument(
        "--out", default=fit_mod.DEFAULT_MODEL_PATH,
        help=f"artifact path (default {fit_mod.DEFAULT_MODEL_PATH})",
    )
    p_fit.add_argument(
        "--max-error", type=float, default=fit_mod.DEFAULT_MAX_ERROR,
        help="held-out geomean relative-error gate; the artifact is "
        "only written when it passes (default 0.05)",
    )
    p_fit.add_argument(
        "--check", action="store_true",
        help="refit and byte-compare against the artifact at --out "
        "instead of writing (exit 1 on any simulated-number drift)",
    )
    p_fit.set_defaults(func=_cmd_fit)

    p_val = sub.add_parser(
        "validate",
        help="re-simulate the artifact's held-out cells and re-score",
    )
    p_val.add_argument(
        "--model-path", default=fit_mod.DEFAULT_MODEL_PATH
    )
    p_val.add_argument("--jobs", type=int, default=None)
    p_val.add_argument(
        "--max-error", type=float, default=fit_mod.DEFAULT_MAX_ERROR
    )
    p_val.add_argument("--json", help="write the report document here")
    p_val.set_defaults(func=_cmd_validate)

    p_pred = sub.add_parser(
        "predict", help="predict one cell's phase breakdown"
    )
    p_pred.add_argument(
        "--model-path", default=fit_mod.DEFAULT_MODEL_PATH
    )
    p_pred.add_argument("--workload", default="hashtable")
    p_pred.add_argument("--scheme", default="SLPMT")
    p_pred.add_argument("--ops", type=int, default=300)
    p_pred.add_argument("--value-bytes", type=int, default=256)
    p_pred.set_defaults(func=_cmd_predict)

    args = parser.parse_args(argv)
    return args.func(args)

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
import sys
from typing import List

from repro.common.errors import ArtifactError
from repro.model import fit as fit_mod
from repro.model.features import CellSpec
from repro.model.predict import ARTIFACT, CostModel
from repro.model.validate import format_validation, validate_model
from repro.obs.bench import exact_gate, load_artifact, write_artifact
from repro.parallel.engine import WorkerCrash, print_progress, resolve_jobs

#: The ``fit_model`` keywords a cost-model artifact records in
#: ``params`` (``model fit --check`` refits with exactly these).
FIT_PARAMS = (
    "workloads", "schemes", "ops_grid", "value_bytes_grid", "seed",
    "holdout_seed",
)


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
        # The staleness gate refits with the *artifact's own* parameters
        # (grids and seeds) — CLI seed flags are ignored — so any byte
        # difference is a simulator/feature change, not a parameter
        # mismatch.
        baseline = load_artifact(args.out, **ARTIFACT)
        try:
            fit_kwargs = {k: baseline["params"][k] for k in FIT_PARAMS}
        except KeyError as exc:
            raise ArtifactError(f"{args.out}: missing field {exc}") from None
    doc = fit_mod.fit_model(
        jobs=jobs, progress=print_progress if jobs > 1 else None, **fit_kwargs
    )
    _print_validation(doc)
    if args.check:
        if exact_gate(doc, baseline, args.out):
            return 0
        print(
            "model fit --check: simulator or feature change without a "
            "refit; re-pin with `model fit`",
            file=sys.stderr,
        )
        return 1
    if doc["validation"]["geomean_rel_error"] > args.max_error:
        print(
            f"model fit: geomean rel error exceeds the "
            f"--max-error gate ({args.max_error * 100:.1f}%) — artifact "
            "not written",
            file=sys.stderr,
        )
        return 1
    write_artifact(args.out, doc)
    print(f"wrote {args.out}")
    return 0


def _cmd_validate(args: argparse.Namespace) -> int:
    jobs = resolve_jobs(args.jobs)
    report = validate_model(
        CostModel(load_artifact(args.model_path, **ARTIFACT)),
        jobs=jobs,
        progress=print_progress if jobs > 1 else None,
        max_error=args.max_error,
    )
    print(format_validation(report))
    if args.json:
        write_artifact(args.json, report)
        print(f"wrote {args.json}")
    return 0 if report["ok"] else 1


def _cmd_predict(args: argparse.Namespace) -> int:
    spec = CellSpec(args.workload, args.scheme, args.ops, args.value_bytes)
    model = CostModel(load_artifact(args.model_path, **ARTIFACT))
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
    try:
        return args.func(args)
    except (ArtifactError, WorkerCrash) as exc:
        print(f"model {args.command}: {exc}", file=sys.stderr)
        return 1

"""Command-line front end.

Subcommands certify single pairs, sweep the inverse-certificate parameter
space, project onto group orbits, run smoothed prediction with synthetic
classifiers, and generate CSV fixtures.  All Monte-Carlo commands require an
explicit --seed; outputs are JSON documents (schema 1) and CSV grids whose
numbers round-trip exactly.

``main`` parses the flags with one parser built at import and writes the one
output document; each ``cmd_*`` function only checks what the library cannot
see, computes, and returns the document's ``results``.
"""

from __future__ import annotations

import argparse
import dataclasses
import hashlib
import json
import math
import sys
import time

import numpy as np

from . import __version__
from .geometry import (
    GroupKind,
    PointCloud,
    epsilon_params,
    load_points_csv,
    rot2,
    save_points_csv,
)
from .mc import ABSTAIN, McConfig, smooth_predict
from .numerics import NumericalFailure, std_normal_cdf
from .oracles import CLASSIFIER_GROUPS, make_classifier
from .orbit import CertificateOutcome, certify_orbit, project
from .tight import certify_multiclass, certify_tight_and_multiclass, pmin_grid

_GROUPS = sorted(kind.value for kind in GroupKind)

_TIGHT_GROUPS = {"T", "SO", "SE"}

# float flags that must be finite numbers (argparse's float() takes "nan" and "inf")
_FINITE_FLAGS = ("sigma", "tau", "norm_x", "norm_delta", "theta")

_NOT_PARAMETERS = {
    "func", "command", "out", "out_csv", "out_clean", "out_perturbed",
    "clean", "perturbed", "input", "sha256",
}


class UsageError(Exception):
    """Input or flag error; maps to exit code 2."""


def _load_cloud(args, name: str) -> PointCloud:
    """The cloud in the file that flag --name names, read once: the bytes
    parsed are the bytes whose digest the manifest lists in args.sha256."""
    path = getattr(args, name)
    try:
        with open(path, "rb") as fh:
            data = fh.read()
        cloud = load_points_csv(path, data)
    except (OSError, ValueError) as exc:
        raise UsageError(f"--{name}: {exc}") from exc
    args.sha256[name] = hashlib.sha256(data).hexdigest()
    return cloud


def _load_pair(args) -> tuple[PointCloud, PointCloud]:
    clean = _load_cloud(args, "clean")
    perturbed = _load_cloud(args, "perturbed")
    if clean.data.shape != perturbed.data.shape:
        raise UsageError("--perturbed: shape differs from --clean")
    return clean, perturbed


def _outcome_dict(outcome: CertificateOutcome) -> dict:
    out = dataclasses.asdict(outcome)
    out["notes"] = list(outcome.notes)
    out["confidences"] = list(outcome.confidences)
    out["margin"] = outcome.margin
    return out


def _document(args, results: dict) -> dict:
    """Output document; the manifest's parameters are every parsed flag except
    the file paths, and each file read is listed under inputs with the
    digest of the bytes parsed."""
    flags = vars(args)
    return {
        "schema": 1,
        "generated_at": time.strftime("%Y-%m-%dT%H:%M:%S%z"),
        "manifest": {
            "command": args.command,
            "parameters": {k: v for k, v in flags.items() if k not in _NOT_PARAMETERS},
            "inputs": {
                k: {"path": flags[k], "sha256": digest} for k, digest in args.sha256.items()
            },
            "version": __version__,
        },
        "results": results,
    }


def _emit(doc: dict, out_path: str | None) -> None:
    try:
        text = json.dumps(doc, sort_keys=True, indent=2, allow_nan=False)
    except ValueError as exc:  # NaN or infinity: not valid JSON
        raise NumericalFailure(f"non-finite value in the output document: {exc}") from exc
    if out_path:
        with open(out_path, "w", encoding="utf-8") as fh:
            fh.write(text + "\n")
    else:
        print(text)


def _mc_config(args) -> McConfig:
    """McConfig from the flags.  --n1 feeds smooth_predict, not McConfig, but
    keeps McConfig's floor of 100."""
    if args.n1 < 100:
        raise UsageError("--n1: must be >= 100")
    return McConfig(n2=args.n2, n3=args.n3, alpha=args.alpha)


def _label_and_p_lower(args, cloud: PointCloud) -> tuple[int | None, float]:
    """--p-lower as given (no label), else the smoothed --classifier's vote."""
    if getattr(args, "p_lower", None) is not None:
        return None, args.p_lower
    if args.classifier is None:
        raise UsageError("--p-lower or --classifier is required")
    g = make_classifier(args.classifier, args.tau, cloud)
    return smooth_predict(g, cloud, args.sigma, args.n1, args.alpha, args.seed)


def _check_float_flags(args) -> None:
    for name in _FINITE_FLAGS:
        value = getattr(args, name, None)
        if value is not None and not math.isfinite(value):
            flag = "--" + name.replace("_", "-")
            raise UsageError(f"{flag}: must be a finite number (got {value})")
    if getattr(args, "sigma", 1.0) <= 0:
        raise UsageError(f"--sigma: must be > 0 (got {args.sigma})")


def _check_probability(value: float | None, flag: str) -> None:
    if value is not None and not 0.0 <= value <= 1.0:
        raise UsageError(f"{flag}: must be a probability in [0, 1] (got {value})")


def cmd_certify(args) -> dict:
    clean, perturbed = _load_pair(args)
    if args.method in ("tight", "both") and args.group not in _TIGHT_GROUPS:
        raise UsageError(
            f"--method {args.method}: tight certificates support groups T, SO, SE"
            f" (got --group {args.group})"
        )
    _check_probability(args.p_lower, "--p-lower")
    _check_probability(args.p_upper, "--p-upper")
    if args.multiclass and args.p_upper is None:
        raise UsageError("--multiclass: requires --p-upper")
    if args.p_upper is not None and not args.multiclass:
        raise UsageError("--p-upper: requires --multiclass")
    if args.p_lower is not None and args.classifier is not None:
        raise UsageError("--classifier: not with --p-lower")
    group = GroupKind(args.group)
    mc = _mc_config(args)
    label, p_lower = _label_and_p_lower(args, clean)
    results: dict = {"p_lower": p_lower}
    if label is not None:
        results["classifier_label"] = "ABSTAIN" if label == ABSTAIN else label
    if args.method in ("orbit", "both"):
        results["orbit"] = _outcome_dict(
            certify_orbit(group, clean, perturbed, p_lower, args.sigma)
        )
    multiclass = None
    if args.method in ("tight", "both"):
        # one call, so that a rotation's tight and multiclass bounds share draws
        tight, multiclass = certify_tight_and_multiclass(
            group, clean, perturbed, p_lower, args.sigma, mc, args.seed, p_upper=args.p_upper
        )
        results["tight"] = _outcome_dict(tight)
    elif args.multiclass:
        multiclass = certify_multiclass(
            group, clean, perturbed, p_lower, args.p_upper, args.sigma, mc, args.seed
        )
    if multiclass is not None:
        results["multiclass"] = _outcome_dict(multiclass)
    return results


def cmd_project(args) -> dict:
    clean, perturbed = _load_pair(args)
    proj = project(GroupKind(args.group), clean, perturbed, max_iters=args.max_iters)
    return {
        "residual": proj.residual,
        "transform": proj.transform_description(),
        "exact": proj.exact,
    }


def cmd_smooth_predict(args) -> dict:
    cloud = _load_cloud(args, "input")
    label, p_lower = _label_and_p_lower(args, cloud)
    return {
        "label": "ABSTAIN" if label == ABSTAIN else label,
        "p_lower": p_lower,
    }


def cmd_pmin_grid(args) -> dict:
    group = None if args.group == "blackbox" else GroupKind.ROTATION
    mc = _mc_config(args)
    grid = pmin_grid(
        group, args.norm_x, args.norm_delta, args.sigma, args.resolution, mc, args.seed
    )
    if args.diff == "blackbox":
        reference = std_normal_cdf(args.norm_delta / args.sigma)
        cells = reference - grid.values
    else:
        cells = grid.values
    lines = []
    for i in range(args.resolution):
        row = [
            "INF" if grid.infeasible[i, j] else repr(float(cells[i, j]))
            for j in range(args.resolution)
        ]
        lines.append(",".join(row))
    with open(args.out_csv, "w", encoding="utf-8") as fh:
        fh.write("\n".join(lines) + "\n")
    loci = [
        {
            "eps1": locus.eps1,
            "eps2": locus.eps2,
            "eps1_normalized": locus.eps1_normalized,
            "eps2_normalized": locus.eps2_normalized,
        }
        for locus in grid.loci
    ]
    return {
        "csv": args.out_csv,
        "eps1_nodes": grid.nodes.tolist(),
        "eps2_nodes": grid.nodes.tolist(),
        "adversarial_rotation_loci": loci,
        "infeasible_cells": int(grid.infeasible.sum()),
    }


def cmd_fixture(args) -> dict:
    if args.norm_x <= 0:
        raise UsageError("--norm-x: must be > 0")
    if args.norm_delta is not None and args.norm_delta < 0:
        raise UsageError(f"--norm-delta: must be >= 0 (got {args.norm_delta})")
    if args.n_points < 1:
        raise UsageError(f"--n-points: must be >= 1 (got {args.n_points})")
    if args.theta is not None and (args.scenario != "rotation" or args.norm_delta is not None):
        raise UsageError("--theta: only for the rotation scenario, and not with --norm-delta")
    rng = np.random.default_rng(args.seed)
    base = rng.standard_normal((args.n_points, args.dim))
    base *= args.norm_x / np.linalg.norm(base)
    if args.scenario == "scaling":
        if args.norm_delta is None:
            raise UsageError("--norm-delta: required for the scaling scenario")
        delta = base * (args.norm_delta / args.norm_x)
    elif args.scenario == "rotation":
        if args.dim != 2:
            raise UsageError("--scenario rotation: requires --dim 2")
        if args.theta is not None:
            theta = args.theta
        elif args.norm_delta is not None:
            ratio = 1.0 - args.norm_delta**2 / (2.0 * args.norm_x**2)
            if ratio < -1.0:
                raise UsageError(
                    "--norm-delta: no rotation reaches this norm (needs <= 2 |X|)"
                )
            theta = float(np.arccos(ratio))
        else:
            raise UsageError("--theta or --norm-delta: required for rotation scenario")
        delta = base @ rot2(theta).T - base
    else:  # random
        if args.norm_delta is None:
            raise UsageError("--norm-delta: required for the random scenario")
        delta = rng.standard_normal((args.n_points, args.dim))
        delta *= args.norm_delta / np.linalg.norm(delta)
    clean = PointCloud(base)
    perturbed = PointCloud(base + delta)
    save_points_csv(args.out_clean, clean)
    save_points_csv(args.out_perturbed, perturbed)
    results = {
        "norm_x": clean.norm(),
        "norm_delta": float(np.linalg.norm(delta)),
        "clean": args.out_clean,
        "perturbed": args.out_perturbed,
    }
    if args.dim == 2:
        eps = epsilon_params(clean, delta)
        results["eps1"] = eps.eps1
        results["eps2"] = eps.eps2
    return results


def _build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="invarcert",
        description="Robustness certificates for invariant point-cloud classifiers",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    certify = sub.add_parser("certify", help="certify one clean/perturbed pair")
    certify.add_argument("--group", required=True, choices=_GROUPS)
    certify.add_argument("--clean", required=True)
    certify.add_argument("--perturbed", required=True)
    certify.add_argument("--sigma", type=float, required=True)
    certify.add_argument("--p-lower", type=float, default=None)
    certify.add_argument("--classifier", choices=tuple(CLASSIFIER_GROUPS))
    certify.add_argument("--tau", type=float, default=1.0)
    certify.add_argument("--alpha", type=float, default=0.001)
    certify.add_argument("--n1", type=int, default=10000)
    certify.add_argument("--n2", type=int, default=10000)
    certify.add_argument("--n3", type=int, default=10000)
    certify.add_argument("--seed", type=int, required=True)
    certify.add_argument("--method", choices=["orbit", "tight", "both"], default="both")
    certify.add_argument("--multiclass", action="store_true")
    certify.add_argument("--p-upper", type=float, default=None)
    certify.add_argument("--out", default=None)
    certify.set_defaults(func=cmd_certify)

    proj = sub.add_parser("project", help="orbit projection of a pair")
    proj.add_argument("--group", required=True, choices=_GROUPS)
    proj.add_argument("--clean", required=True)
    proj.add_argument("--perturbed", required=True)
    proj.add_argument("--max-iters", type=int, default=50)
    proj.add_argument("--out", default=None)
    proj.set_defaults(func=cmd_project)

    smooth = sub.add_parser("smooth-predict", help="smoothed prediction with abstention")
    smooth.add_argument("--classifier", required=True, choices=tuple(CLASSIFIER_GROUPS))
    smooth.add_argument("--input", required=True)
    smooth.add_argument("--tau", type=float, default=1.0)
    smooth.add_argument("--sigma", type=float, required=True)
    smooth.add_argument("--n1", type=int, default=1000)
    smooth.add_argument("--alpha", type=float, default=0.001)
    smooth.add_argument("--seed", type=int, required=True)
    smooth.add_argument("--out", default=None)
    smooth.set_defaults(func=cmd_smooth_predict)

    grid = sub.add_parser("pmin-grid", help="inverse-certificate parameter sweep")
    grid.add_argument("--group", required=True, choices=["blackbox", "SO2"])
    grid.add_argument("--norm-x", type=float, required=True)
    grid.add_argument("--norm-delta", type=float, required=True)
    grid.add_argument("--sigma", type=float, required=True)
    grid.add_argument("--resolution", type=int, required=True)
    grid.add_argument("--seed", type=int, required=True)
    grid.add_argument("--alpha", type=float, default=0.001)
    grid.add_argument("--n1", type=int, default=10000, help="checked (>= 100) but unused")
    grid.add_argument("--n2", type=int, default=10000)
    grid.add_argument("--n3", type=int, default=10000)
    grid.add_argument("--diff", choices=["blackbox"], default=None)
    grid.add_argument("--out-csv", required=True)
    grid.add_argument("--out-json", dest="out", default=None)
    grid.set_defaults(func=cmd_pmin_grid)

    fixture = sub.add_parser("fixture", help="generate CSV point-cloud fixtures")
    fixture.add_argument(
        "--scenario", required=True, choices=["scaling", "rotation", "random"]
    )
    fixture.add_argument("--norm-x", type=float, required=True)
    fixture.add_argument("--norm-delta", type=float, default=None)
    fixture.add_argument("--theta", type=float, default=None)
    fixture.add_argument("--n-points", type=int, default=16)
    fixture.add_argument("--dim", type=int, default=2, choices=[2, 3])
    fixture.add_argument("--seed", type=int, required=True)
    fixture.add_argument("--out-clean", required=True)
    fixture.add_argument("--out-perturbed", required=True)
    fixture.add_argument("--out", default=None)
    fixture.set_defaults(func=cmd_fixture)

    return parser


# parse_args fills a fresh namespace on every call, so the one parser built
# here serves every main() call of the process
_PARSER = _build_parser()


def main(argv=None) -> int:
    args = _PARSER.parse_args(argv)
    args.sha256 = {}   # flag name -> digest of each file read, filled by _load_cloud
    try:
        _check_float_flags(args)
        _emit(_document(args, args.func(args)), args.out)
        return 0
    except (UsageError, ValueError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2
    except NumericalFailure as exc:
        print(f"numerical failure: {exc}", file=sys.stderr)
        return 3


if __name__ == "__main__":
    sys.exit(main())

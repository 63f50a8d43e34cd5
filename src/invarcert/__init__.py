"""Robustness certificates for randomly smoothed, invariant point-cloud
classifiers: orbit-based certificates for Euclidean isometries and
permutations, and tight Monte-Carlo certificates for rotation groups.

The top level exports the paper's procedures and the types they take and
return.  Everything else (statistics, reduced-problem builders, samplers,
single-group projections) is imported from the module that defines it."""

__version__ = "0.1.0"

from .geometry import GroupKind, PointCloud, load_points_csv, save_points_csv
from .mc import ABSTAIN, McConfig, smooth_predict
from .numerics import NumericalFailure
from .orbit import CertificateOutcome, certify_orbit, project
from .tight import (
    PminGrid,
    certify_multiclass,
    certify_tight,
    certify_tight_and_multiclass,
    inverse_certificate,
    pmin_grid,
)

__all__ = [
    "ABSTAIN",
    "CertificateOutcome",
    "GroupKind",
    "McConfig",
    "NumericalFailure",
    "PminGrid",
    "PointCloud",
    "certify_multiclass",
    "certify_orbit",
    "certify_tight",
    "certify_tight_and_multiclass",
    "inverse_certificate",
    "load_points_csv",
    "pmin_grid",
    "project",
    "save_points_csv",
    "smooth_predict",
]

"""Robustness certificates for randomly smoothed, invariant point-cloud
classifiers: orbit-based certificates for Euclidean isometries and
permutations, and tight Monte-Carlo certificates for rotation groups."""

__version__ = "0.1.0"

from .geometry import (
    EpsilonParams,
    GroupKind,
    PointCloud,
    adversarial_rotation_locus,
    center,
    epsilon_params,
    load_points_csv,
    rot2,
    save_points_csv,
)
from .mc import (
    ABSTAIN,
    LikelihoodStatistic,
    McConfig,
    RotationCertProblem,
    inverse_certify_reduced,
    prob_certify_reduced,
    prob_certify_upper_reduced,
    smooth_predict,
)
from .numerics import (
    NumericalFailure,
    clopper_pearson_lower,
    clopper_pearson_upper,
    log_bessel_i0,
    sample_gaussian,
    std_normal_cdf,
    std_normal_quantile,
)
from .orbit import (
    CertificateOutcome,
    OrbitProjection,
    blackbox_radius,
    certify_orbit,
    project,
    project_orthogonal,
    project_permutation,
    project_registration_upper,
    project_rotation,
    project_roto_translation,
    project_translation,
)
from .tight import (
    PminGrid,
    build_so2_problem,
    build_so3_problem,
    certify_multiclass,
    certify_tight,
    certify_tight_and_multiclass,
    inverse_certificate,
    multiclass_radius,
    pmin_grid,
    rho_so2,
    rho_so3,
    so2_problem_from_params,
    so3_log_beta,
)

__all__ = [
    # geometry
    "EpsilonParams",
    "GroupKind",
    "PointCloud",
    "adversarial_rotation_locus",
    "center",
    "epsilon_params",
    "load_points_csv",
    "rot2",
    "save_points_csv",
    # mc
    "ABSTAIN",
    "LikelihoodStatistic",
    "McConfig",
    "RotationCertProblem",
    "inverse_certify_reduced",
    "prob_certify_reduced",
    "prob_certify_upper_reduced",
    "smooth_predict",
    # numerics
    "NumericalFailure",
    "clopper_pearson_lower",
    "clopper_pearson_upper",
    "log_bessel_i0",
    "sample_gaussian",
    "std_normal_cdf",
    "std_normal_quantile",
    # orbit
    "CertificateOutcome",
    "OrbitProjection",
    "blackbox_radius",
    "certify_orbit",
    "project",
    "project_orthogonal",
    "project_permutation",
    "project_registration_upper",
    "project_rotation",
    "project_roto_translation",
    "project_translation",
    # tight
    "PminGrid",
    "build_so2_problem",
    "build_so3_problem",
    "certify_multiclass",
    "certify_tight",
    "certify_tight_and_multiclass",
    "inverse_certificate",
    "multiclass_radius",
    "pmin_grid",
    "rho_so2",
    "rho_so3",
    "so2_problem_from_params",
    "so3_log_beta",
]

"""The public surface of the package, pinned: adding, removing or renaming an
exported name is a deliberate edit of this list."""

import types

import invarcert

PUBLIC_NAMES = [
    "ABSTAIN",
    "CertificateOutcome",
    "EpsilonParams",
    "GroupKind",
    "LikelihoodStatistic",
    "McConfig",
    "NumericalFailure",
    "OrbitProjection",
    "PminGrid",
    "PointCloud",
    "RotationCertProblem",
    "adversarial_rotation_locus",
    "blackbox_radius",
    "build_so2_problem",
    "build_so3_problem",
    "center",
    "certify_multiclass",
    "certify_orbit",
    "certify_tight",
    "certify_tight_and_multiclass",
    "clopper_pearson_lower",
    "clopper_pearson_upper",
    "epsilon_params",
    "inverse_certificate",
    "inverse_certify_reduced",
    "load_points_csv",
    "log_bessel_i0",
    "multiclass_radius",
    "pmin_grid",
    "prob_certify_reduced",
    "prob_certify_upper_reduced",
    "project",
    "project_orthogonal",
    "project_permutation",
    "project_registration_upper",
    "project_rotation",
    "project_roto_translation",
    "project_translation",
    "rho_so2",
    "rho_so3",
    "rot2",
    "sample_gaussian",
    "save_points_csv",
    "smooth_predict",
    "so2_problem_from_params",
    "so3_log_beta",
    "std_normal_cdf",
    "std_normal_quantile",
]


def test_public_names_pinned():
    assert sorted(invarcert.__all__) == PUBLIC_NAMES


def test_public_names_resolve():
    # a hand-written list can name something __init__ never imports
    namespace: dict = {}
    exec("from invarcert import *", namespace)
    for name in invarcert.__all__:
        value = getattr(invarcert, name)
        assert not isinstance(value, types.ModuleType), name
        assert namespace[name] is value

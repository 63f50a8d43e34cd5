"""The public surface of the package, pinned: adding, removing or renaming an
exported name is a deliberate edit of this list."""

import importlib
import inspect
import types

import pytest

import invarcert

PUBLIC_NAMES = [
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

# Names kept out of the top level, by the module that defines them.
SUBMODULE_NAMES = {
    "geometry": ["EpsilonParams", "adversarial_rotation_locus", "center", "epsilon_params", "rot2"],
    "mc": [
        "LikelihoodStatistic", "RotationCertProblem", "inverse_certify_reduced",
        "prob_certify_reduced", "prob_certify_upper_reduced",
    ],
    "numerics": [
        "clopper_pearson_lower", "clopper_pearson_upper", "log_bessel_i0", "sample_gaussian",
        "std_normal_cdf", "std_normal_quantile",
    ],
    "orbit": [
        "OrbitProjection", "blackbox_radius", "project_orthogonal", "project_permutation",
        "project_registration_upper", "project_rotation", "project_roto_translation",
        "project_translation",
    ],
    "tight": [
        "build_so2_problem", "build_so3_problem", "multiclass_radius", "rho_so2", "rho_so3",
        "so2_problem_from_params", "so3_log_beta",
    ],
}


def test_public_names_pinned():
    assert sorted(invarcert.__all__) == PUBLIC_NAMES


def test_public_names_resolve():
    # a hand-written list can name something __init__ never imports
    namespace: dict = {}
    exec("from invarcert import *", namespace)
    assert sorted(set(namespace) - {"__builtins__"}) == PUBLIC_NAMES
    for name in invarcert.__all__:
        value = getattr(invarcert, name)
        assert not isinstance(value, types.ModuleType), name
        assert namespace[name] is value


@pytest.mark.parametrize(
    "module, name", [(module, name) for module, names in SUBMODULE_NAMES.items() for name in names]
)
def test_submodule_names_stay_where_they_are_defined(module, name):
    assert not hasattr(invarcert, name)
    value = getattr(importlib.import_module(f"invarcert.{module}"), name)
    assert inspect.isfunction(value) or inspect.isclass(value), name
    assert value.__module__ == f"invarcert.{module}"

"""Acceptance suite: the twelve exit criteria, each at its stated tolerance.

Run with ``pytest tests/test_acceptance.py -v -s`` to see one PASS line per
criterion.  Monte-Carlo budgets follow the criteria; seeds are fixed.
"""

import json
import math

import mpmath
import numpy as np
import pytest

from invarcert.cli import main
from invarcert.geometry import (
    GroupKind,
    PointCloud,
    adversarial_rotation_locus,
    center,
    epsilon_params,
    rot2,
    save_points_csv,
)
from invarcert.mc import McConfig, inverse_certify_reduced, prob_certify_reduced, smooth_predict
from invarcert.numerics import std_normal_cdf, std_normal_quantile
from invarcert.oracles import SyntheticClassifier
from invarcert.orbit import blackbox_radius, certify_orbit, project_permutation, project_rotation, project_translation
from invarcert.tight import (
    build_so2_problem,
    certify_tight,
    inverse_certificate,
    multiclass_radius,
    so3_log_beta,
)
from reference import (
    blackbox_reduced_problem,
    brute_force_permutation,
    brute_force_procrustes_2d,
    haar_oracle_so2,
    haar_oracle_so3,
    reference_probability,
    so3_log_beta_hat,
)

# the digit is the dimension of the clouds each test passes
SO2 = GroupKind.ROTATION
SE2 = GroupKind.ROTO_TRANSLATION
SO3 = GroupKind.ROTATION
SE3 = GroupKind.ROTO_TRANSLATION

# oracle: bisection quantile on the erf form of Phi, 40 digits
RADIUS_08_05 = 0.4208106167864571


def _report(num, message):
    print(f"\nACCEPTANCE {num} PASS: {message}")


def _centered_pair_files(tmp_path, norm_delta, seed=101, n=6):
    rng = np.random.default_rng(seed)
    x = rng.standard_normal((n, 2))
    x -= x.mean(axis=0)
    delta = rng.standard_normal((n, 2))
    delta -= delta.mean(axis=0)
    delta *= norm_delta / np.linalg.norm(delta)
    clean = tmp_path / f"clean_{norm_delta}.csv"
    perturbed = tmp_path / f"pert_{norm_delta}.csv"
    save_points_csv(clean, PointCloud(x))
    save_points_csv(perturbed, PointCloud(x + delta))
    return str(clean), str(perturbed)


def _run_json(tmp_path, name, args):
    out = tmp_path / name
    code = main(args + ["--out", str(out)])
    assert code == 0
    return json.loads(out.read_text())


def test_criterion_01_blackbox_baseline(tmp_path):
    # radius sigma * Phi^-1(0.8) at sigma = 0.5
    assert blackbox_radius(0.8, 0.5) == pytest.approx(RADIUS_08_05, abs=1e-4)
    # a centered perturbation leaves the translation certificate at the raw
    # black-box radius, so the CLI verdict flips between 0.42 and 0.43
    verdicts = {}
    for norm_delta in (0.42, 0.43):
        clean, perturbed = _centered_pair_files(tmp_path, norm_delta)
        doc = _run_json(
            tmp_path,
            f"c1_{norm_delta}.json",
            [
                "certify", "--group", "T", "--clean", clean, "--perturbed", perturbed,
                "--sigma", "0.5", "--p-lower", "0.8", "--seed", "1", "--method", "both",
                "--n2", "1000", "--n3", "1000",
            ],
        )
        assert doc["results"]["orbit"]["residual"] == pytest.approx(norm_delta, abs=1e-9)
        verdicts[norm_delta] = doc["results"]["orbit"]["certified"]
        assert doc["results"]["tight"]["certified"] == verdicts[norm_delta]
    assert verdicts[0.42] is True
    assert verdicts[0.43] is False
    _report(1, "black-box radius 0.42081 reproduced; CLI verdict flips at 0.42/0.43")


def test_criterion_02_tight_vs_baseline_gap(tmp_path):
    # sigma=0.5, |X|=0.01, p=0.8, pure scaling, n2=n3=1e5, alpha=0.001
    verdicts = {}
    for norm_delta in (0.70, 0.80):
        clean = tmp_path / f"c2_clean_{norm_delta}.csv"
        perturbed = tmp_path / f"c2_pert_{norm_delta}.csv"
        assert main([
            "fixture", "--scenario", "scaling", "--norm-x", "0.01",
            "--norm-delta", str(norm_delta), "--n-points", "8", "--dim", "2",
            "--seed", "7", "--out-clean", str(clean), "--out-perturbed", str(perturbed),
        ]) == 0
        doc = _run_json(
            tmp_path,
            f"c2_{norm_delta}.json",
            [
                "certify", "--group", "SO", "--clean", str(clean),
                "--perturbed", str(perturbed), "--sigma", "0.5", "--p-lower", "0.8",
                "--seed", "42", "--method", "tight", "--alpha", "0.001",
                "--n2", "100000", "--n3", "100000",
            ],
        )
        verdicts[norm_delta] = doc["results"]["tight"]["certified"]
    assert verdicts[0.70] is True
    assert verdicts[0.80] is False
    _report(2, "tight SO(2) certifies the scaling fixture at |Delta|=0.70, not at 0.80")


def test_criterion_03_translation_equivalence():
    rng = np.random.default_rng(3)
    group = GroupKind.TRANSLATION
    for _ in range(500):
        n = int(rng.integers(2, 9))
        x = PointCloud(rng.standard_normal((n, 2)))
        xp = PointCloud(x.data + rng.uniform(0.05, 1.2) * rng.standard_normal((n, 2)))
        p = float(rng.uniform(0.05, 0.98))
        sigma = float(rng.uniform(0.2, 1.0))
        tight = certify_tight(group, x, xp, p, sigma, McConfig(), seed=1)
        residual = project_translation(x, xp).residual
        direct = std_normal_cdf(std_normal_quantile(p) - residual / sigma)
        assert abs(tight.bound_value - direct) <= 1e-12
        orbit = certify_orbit(group, x, xp, p, sigma)
        assert tight.certified == orbit.certified
        assert abs(tight.bound_value - orbit.bound_value) <= 1e-12
    _report(3, "closed-form translation bound and orbit verdict agree on 500 instances")


def test_criterion_04_roto_translation_reduction():
    rng = np.random.default_rng(4)
    mc = McConfig(n2=300, n3=300, alpha=0.01)
    for trial in range(100):
        dim = 2 if trial % 2 == 0 else 3
        gse = SE2 if dim == 2 else SE3
        gso = SO2 if dim == 2 else SO3
        n = int(rng.integers(3, 8))
        x = PointCloud(rng.standard_normal((n, dim)) * 0.4)
        xp = PointCloud(x.data + 0.3 * rng.standard_normal((n, dim)))
        seed = 1000 + trial
        se_out = certify_tight(gse, x, xp, 0.85, 0.5, mc, seed=seed)
        so_out = certify_tight(
            gso, center(x), center(xp), 0.85, 0.5, mc, seed=seed
        )
        assert se_out.bound_value == so_out.bound_value
        assert se_out.kappa_log == so_out.kappa_log
        assert se_out.p_lower == so_out.p_lower
    _report(4, "SE path bit-identical to SO path on centered inputs, 100 instances")


def test_criterion_05_strictness():
    rng = np.random.default_rng(5)
    sigma = 0.5
    mc = McConfig(n2=10000, n3=10000, alpha=0.001)
    dominated = 0
    big_wins = 0
    for trial in range(100):
        norm_x = float(rng.uniform(0.001, sigma / 10.0))
        x = rng.standard_normal((5, 2))
        x *= norm_x / np.linalg.norm(x)
        delta = rng.standard_normal((5, 2))
        delta *= float(rng.uniform(0.2, 1.2)) * sigma / np.linalg.norm(delta)
        p = float(rng.uniform(0.55, 0.95))
        xc, xpc = PointCloud(x), PointCloud(x + delta)
        tight = certify_tight(SO2, xc, xpc, p, sigma, mc, seed=2000 + trial)
        residual = project_rotation(xc, xpc).residual
        orbit_value = std_normal_cdf(std_normal_quantile(p) - residual / sigma)
        se = math.sqrt(tight.bound_value * (1.0 - tight.bound_value) / mc.n3)
        if tight.bound_value >= orbit_value - 3.0 * se:
            dominated += 1
        if tight.bound_value - orbit_value > 0.01:
            big_wins += 1
    assert dominated == 100
    assert big_wins >= 50
    _report(5, f"tight beats orbit value in 100/100 cases ({big_wins} by > 0.01)")


def test_criterion_06_haar_closed_form():
    rng = np.random.default_rng(6)
    worst = 0.0
    for _ in range(200):
        n = int(rng.integers(2, 8))
        x = PointCloud(rng.standard_normal((n, 2)))
        z = PointCloud(rng.standard_normal((n, 2)))
        sigma = float(rng.uniform(0.4, 1.5))
        oracle = haar_oracle_so2(x, z, sigma, 20_000)
        a = float(np.sum(z.data * x.data)) / sigma**2
        b = float(np.sum((x.data @ rot2(-math.pi / 2).T) * z.data)) / sigma**2
        from invarcert.numerics import log_bessel_i0

        closed = math.log(2.0 * math.pi) + log_bessel_i0(math.hypot(a, b))
        worst = max(worst, abs(oracle - closed) / abs(closed))
    assert worst < 1e-7
    _report(6, f"SO(2) Haar oracle matches Bessel closed form, worst rel err {worst:.2e}")


def test_criterion_07_so3_quadrature():
    rng = np.random.default_rng(7)
    worst_oracle = 0.0
    worst_drift = 0.0
    shift = math.log(2.0 * math.pi)  # the analytically integrated z-angle
    for _ in range(50):
        m = rng.standard_normal((3, 3))
        sigma = float(rng.uniform(0.8, 1.2))
        quad = so3_log_beta_hat(m, sigma)
        oracle = haar_oracle_so3(m, sigma, 200)
        worst_oracle = max(worst_oracle, abs(oracle - (quad + shift)) / abs(oracle))
        # error estimate: drift from the Gauss rule to its Kronrod refinement
        error = so3_log_beta(m[None] / sigma**2)[1][0]
        worst_drift = max(worst_drift, error / abs(quad))
    assert worst_oracle < 1e-5
    assert worst_drift < 1e-6
    _report(
        7,
        f"closed-form SO(3) statistic vs 200^3 oracle rel err {worst_oracle:.2e}, "
        f"error estimate {worst_drift:.2e}",
    )


def test_criterion_08_procrustes_and_hungarian():
    rng = np.random.default_rng(8)
    worst = 0.0
    for _ in range(200):
        n = int(rng.integers(3, 9))
        x = PointCloud(rng.standard_normal((n, 2)))
        xp = PointCloud(x.data + 0.6 * rng.standard_normal((n, 2)))
        svd = project_rotation(x, xp).residual
        grid = brute_force_procrustes_2d(x, xp, 100_000)
        assert svd <= grid + 1e-9
        worst = max(worst, grid - svd)
    assert worst < 1e-6
    for n in range(2, 8):
        for k in range(5):
            x = PointCloud(rng.standard_normal((n, 3)))
            xp = PointCloud(rng.standard_normal((n, 3)))
            assert project_permutation(x, xp).residual == pytest.approx(
                brute_force_permutation(x, xp), abs=1e-12
            )
    _report(8, f"SVD within {worst:.2e} of the angle grid; Hungarian exact for N <= 7")


def test_criterion_09_coverage():
    rng = np.random.default_rng(9)
    sigma = 0.5
    x = PointCloud(rng.standard_normal((5, 2)) * 0.4)
    delta = rng.standard_normal((5, 2))
    delta *= 0.3 / np.linalg.norm(delta)
    xp = PointCloud(x.data + delta)
    # threshold set so the clean prediction probability is comfortably high
    from scipy import stats

    lam = (x.norm() / sigma) ** 2
    tau = sigma * math.sqrt(stats.ncx2.ppf(0.85, 10, lam))
    g = SyntheticClassifier("norm", tau)
    reference = reference_probability(g, xp, sigma, 10_000_000, seed=90, label=1)
    problem = build_so2_problem(x, xp, sigma)
    mc = McConfig(n2=2000, n3=2000, alpha=0.001)
    failures = 0
    for trial in range(1000):
        # the command line's sequence: smooth_predict's p_lower feeds Algorithm 1
        seed = 10_000 + trial
        _, p = smooth_predict(g, x, sigma, 1000, mc.alpha, seed)
        out = prob_certify_reduced(problem, mc, seed=seed, p_lower=p)
        if out.bound_value > reference.probability:
            failures += 1
    assert failures <= 1
    _report(
        9,
        f"Algorithm-1 bound below the 1e7-sample reference in {1000 - failures}/1000 trials",
    )


def test_criterion_10_inverse_consistency():
    mc = McConfig(n2=100_000, n3=100_000, alpha=0.001)
    # black-box group
    rng = np.random.default_rng(10)
    x = PointCloud(rng.standard_normal((5, 2)))
    delta = rng.standard_normal((5, 2))
    delta *= 0.5 / np.linalg.norm(delta)
    xp = PointCloud(x.data + delta)
    closed_bb = inverse_certificate(None, x, xp, 0.5, mc, seed=1)
    assert closed_bb == pytest.approx(std_normal_cdf(1.0), abs=1e-12)
    mc_bb = inverse_certify_reduced(
        blackbox_reduced_problem(0.5, 0.5), mc, seed=2
    )
    width = 3.0 * math.sqrt(closed_bb * (1.0 - closed_bb) / mc.n3)
    assert abs(mc_bb - closed_bb) <= 0.01 + width
    # translation group
    group_t = GroupKind.TRANSLATION
    residual = project_translation(x, xp).residual
    closed_t = inverse_certificate(group_t, x, xp, 0.5, mc, seed=3)
    assert closed_t == pytest.approx(std_normal_cdf(residual / 0.5), abs=1e-12)
    mc_t = inverse_certify_reduced(
        blackbox_reduced_problem(residual, 0.5), mc, seed=4
    )
    assert abs(mc_t - closed_t) <= 0.01 + width
    # identical distributions
    pmin = inverse_certify_reduced(
        blackbox_reduced_problem(0.0, 0.5), mc, seed=5
    )
    assert 0.50 <= pmin <= 0.53
    _report(
        10,
        f"Algorithm 3 within {max(abs(mc_bb - closed_bb), abs(mc_t - closed_t)):.4f} "
        "of the closed forms; identical-distribution p_min in [0.50, 0.53]",
    )


def test_criterion_11_adversarial_rotation_locus():
    rng = np.random.default_rng(11)
    for theta in np.linspace(0.1, 3.0, 15):
        x = PointCloud(rng.standard_normal((6, 2)))
        delta = x.data @ rot2(theta).T - x.data
        eps = epsilon_params(x, delta)
        norm_delta = float(np.linalg.norm(delta))
        loci = adversarial_rotation_locus(x.norm(), norm_delta)
        assert loci, "rotation-generated perturbation must be feasible"
        expected_eps1 = -0.5 * norm_delta**2
        expected_eps2 = 0.5 * math.sqrt(
            norm_delta**2 * (4.0 * x.norm() ** 2 - norm_delta**2)
        )
        best = min(loci, key=lambda l: abs(l.eps2 - eps.eps2))
        assert best.eps1 == pytest.approx(expected_eps1, abs=1e-9)
        assert abs(best.eps2) == pytest.approx(expected_eps2, abs=1e-9)
        assert eps.eps1 == pytest.approx(expected_eps1, abs=1e-9)
    assert adversarial_rotation_locus(1.0, 2.0 + 1e-12) == []
    assert adversarial_rotation_locus(1.0, 2.0 - 1e-12) != []
    _report(11, "rotation fixtures reproduce the locus formulas to 1e-9")


def test_criterion_12_multiclass_radius():
    # oracle: quantile via mpmath erfinv, an independent inversion path
    def oracle_quantile(p):
        return float(mpmath.sqrt(2) * mpmath.erfinv(2 * mpmath.mpf(p) - 1))

    rng = np.random.default_rng(12)
    worst = 0.0
    for _ in range(100):
        pb = float(rng.uniform(0.01, 0.45))
        pa = float(rng.uniform(pb + 0.05, 0.99))
        sigma = float(rng.uniform(0.1, 1.5))
        got = multiclass_radius(pa, pb, sigma)
        expected = 0.5 * sigma * (oracle_quantile(pa) - oracle_quantile(pb))
        worst = max(worst, abs(got - expected))
    assert worst < 1e-6
    _report(12, f"multi-class radius matches the quantile oracle, worst diff {worst:.2e}")

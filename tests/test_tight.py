"""Tight certificates: closed-form translation, reduced rotation problems,
multi-class combination, inverse certificates and the parameter grid."""

import dataclasses
import math
import re
from fractions import Fraction

import mpmath
import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from invarcert import mc as mc_engine
from invarcert import tight
from invarcert.geometry import (
    GroupKind,
    PointCloud,
    center,
    epsilon_params,
    rot2,
)
from invarcert.mc import (
    McConfig,
    inverse_certify_reduced,
    prob_certify_reduced,
    prob_certify_upper_reduced,
    upper_quantile_index,
)
from invarcert.numerics import (
    NumericalFailure,
    clopper_pearson_upper,
    sample_gaussian,
    std_normal_cdf,
    std_normal_quantile,
)
from invarcert.orbit import certify_orbit, project, project_rotation, shift_bound
from invarcert.tight import (
    LikelihoodStatistic,
    RotationCertProblem,
    build_so2_problem,
    build_so3_problem,
    certify_multiclass,
    certify_tight,
    certify_tight_and_multiclass,
    devec9,
    inverse_certificate,
    multiclass_radius,
    pmin_grid,
    rho_so2,
    rho_so3,
    so2_problem_from_params,
    proper_singular_values,
    so3_log_beta,
)
from reference import (
    blackbox_reduced_problem,
    linear_statistic,
    rot3_zyx,
    so2_projection_matrix,
    so3_log_beta_hat,
    so3_projection_matrix,
    sorted_cut,
)

# the digit is the dimension of the clouds each test passes
SO2 = GroupKind.ROTATION
SE2 = GroupKind.ROTO_TRANSLATION
SO3 = GroupKind.ROTATION
SE3 = GroupKind.ROTO_TRANSLATION

FAST_MC = McConfig(n2=10000, n3=10000, alpha=0.001)


def _pair(rng, n, d, scale=0.3, norm_x=None):
    x = rng.standard_normal((n, d))
    if norm_x is not None:
        x *= norm_x / np.linalg.norm(x)
    delta = scale * rng.standard_normal((n, d))
    return PointCloud(x), PointCloud(x + delta)


class TestTightTranslation:
    def test_pure_translation_keeps_p(self):
        rng = np.random.default_rng(0)
        x = PointCloud(rng.standard_normal((5, 2)))
        xp = PointCloud(x.data + np.array([0.7, -0.2]))
        out = certify_tight(GroupKind.TRANSLATION, x, xp, 0.8, 0.5, FAST_MC, seed=1)
        assert out.bound_value == pytest.approx(0.8, abs=1e-12)
        assert out.certified

    def test_certification_boundary(self):
        # centered residual 0.4208 at p = 0.8, sigma = 0.5 sits at the boundary
        delta = np.array([[0.0, 1.0], [0.0, -1.0]])
        delta *= 0.4208 / np.linalg.norm(delta)
        x = PointCloud(np.array([[1.0, 0.0], [-1.0, 0.0]]))
        out = certify_tight(GroupKind.TRANSLATION, x, PointCloud(x.data + delta), 0.8, 0.5, FAST_MC, seed=1)
        assert out.bound_value == pytest.approx(0.5, abs=1e-4)

    def test_matches_orbit_verdict_and_value(self):
        rng = np.random.default_rng(1)
        group = GroupKind.TRANSLATION
        for i in range(100):
            x, xp = _pair(rng, 5, 2, scale=rng.uniform(0.1, 1.0))
            p = float(rng.uniform(0.05, 0.95))
            tight = certify_tight(group, x, xp, p, 0.5, FAST_MC, seed=1)
            orbit = certify_orbit(group, x, xp, p, 0.5)
            assert tight.certified == orbit.certified
            assert tight.bound_value == pytest.approx(orbit.bound_value, abs=1e-12)


class TestSo2Problem:
    def test_zero_perturbation_degenerate(self):
        rng = np.random.default_rng(2)
        x = PointCloud(rng.standard_normal((4, 2)))
        problem = build_so2_problem(x, x, 0.5)
        nx2 = x.norm() ** 2 / 0.25
        assert np.allclose(problem.mean_perturbed, [nx2, 0.0, nx2, 0.0])
        assert np.array_equal(problem.mean_perturbed, problem.mean_clean)
        assert np.linalg.matrix_rank(problem.factor @ problem.factor.T, tol=1e-9) == 2

    def test_reconstruction_from_projection(self):
        rng = np.random.default_rng(3)
        for _ in range(10):
            x, xp = _pair(rng, 6, 2, scale=0.8)
            problem = build_so2_problem(x, xp, 0.7)
            w = so2_projection_matrix(x, xp, 0.7)
            covariance = problem.factor @ problem.factor.T
            assert np.max(np.abs(covariance - 0.49 * (w @ w.T))) < 1e-9
            assert np.max(np.abs(problem.mean_perturbed - w @ xp.data.T.ravel())) < 1e-9
            assert np.max(np.abs(problem.mean_clean - w @ x.data.T.ravel())) < 1e-9

    def test_scale_invariance_bitwise(self):
        rng = np.random.default_rng(4)
        x, xp = _pair(rng, 5, 2, scale=0.4)
        a = build_so2_problem(x, xp, 0.5)
        c = 2.0  # power of two: scaling is exact in floating point
        b = build_so2_problem(PointCloud(c * x.data), PointCloud(c * xp.data), c * 0.5)
        assert np.array_equal(a.mean_perturbed, b.mean_perturbed)
        assert np.array_equal(a.mean_clean, b.mean_clean)
        assert np.array_equal(a.factor, b.factor)

    def test_rejects_3d(self):
        x = PointCloud(np.zeros((3, 3)) + np.eye(3))
        with pytest.raises(ValueError):
            build_so2_problem(x, x, 0.5)

    @pytest.mark.parametrize(
        "params",
        [(1e100, 1e60, 3e159, 4e159, 1e100), (0.0, 0.5, 0.0, 0.0, 0.25)],
        ids=["eps-squared-overflows", "zero-cloud"],
    )
    def test_factor_matches_the_covariance(self, params):
        # F F^T against the covariance entries [[a I, B], [B^T, d I]], and s
        # against |Delta_perp| / sigma in 50 digits.  In the first case eps1^2
        # overflows, so |Delta|^2 - |eps|^2 / |X|^2 would read -inf and clip
        # s to 0; at X = 0, s is |Delta| / sigma
        factor = so2_problem_from_params(*params).factor
        norm_x, norm_delta, eps1, eps2, sigma = params
        a, b, c, d = np.array(
            [2.0 * eps1 + norm_x**2 + norm_delta**2, eps1 + norm_x**2, eps2, norm_x**2]
        ) / sigma**2
        covariance = np.array([[a, 0.0, b, c], [0.0, a, -c, b], [b, -c, d, 0.0], [c, b, 0.0, d]])
        assert np.all(np.abs(factor @ factor.T - covariance) <= 1e-12 * np.abs(covariance))
        with mpmath.workdps(50):
            nx, nd, e1, e2, sg = (mpmath.mpf(p) for p in params)
            perp = mpmath.sqrt(nd**2 - (e1**2 + e2**2) / nx**2) if nx else nd
            s = float(perp / sg)
        assert factor[0, 2] == factor[1, 3] == pytest.approx(s, rel=1e-12, abs=0.0)


class TestRhoSo2:
    def test_at_origin(self):
        assert rho_so2()(np.zeros((1, 4)))[0] == 0.0

    def test_symmetric_arguments_cancel(self):
        stat = rho_so2()
        for a in (0.5, 3.0, 40.0):
            assert stat(np.array([[a, 0.0, a, 0.0]]))[0] == pytest.approx(0.0, abs=1e-14)

    def test_pythagorean_argument(self):
        got = rho_so2()(np.array([[3.0, 4.0, 0.0, 0.0]]))[0]
        ref = float(mpmath.log(mpmath.besseli(0, 5)))
        assert got == pytest.approx(ref, abs=1e-10)


def _random_rotation(rng):
    return rot3_zyx(rng.uniform(-math.pi, math.pi, 3))


def _mpmath_log_beta(m):
    """log(4 pi E exp<R, M>) from 30-digit singular values and Wood's integral
    int_0^1 I0(2a u) I0(2b(1-u)) exp(-2k u) du times exp(s1 + s2 + s3), split
    at multiples of the scales 1/a, 1/k near u = 0 and 1/b near u = 1."""
    with mpmath.workdps(30):
        mm = mpmath.matrix(m.tolist())
        sv = sorted(mpmath.svd_r(mm, compute_uv=False), reverse=True)
        s1, s2 = sv[0], sv[1]
        s3 = sv[2] * mpmath.sign(mpmath.det(mm))
        a, b, k = (s1 - s2) / 2, (s1 + s2) / 2, s2 + s3

        def f(u):
            x, y = 2 * a * u, 2 * b * (1 - u)
            return (
                mpmath.besseli(0, x) * mpmath.exp(-x)
                * mpmath.besseli(0, y) * mpmath.exp(-y) * mpmath.exp(-2 * k * u)
            )

        cuts = {mpmath.mpf(0), mpmath.mpf(0.5), mpmath.mpf(1)}
        for scale, near_zero in ((a, True), (k, True), (b, False)):
            for c in (0.01, 0.1, 1, 10, 100, 1000):
                if scale > 0 and c / scale < 0.5:
                    cuts.add(c / scale if near_zero else 1 - c / scale)
        integral = mpmath.quad(f, sorted(cuts))
        return float(mpmath.log(4 * mpmath.pi) + s1 + s2 + s3 + mpmath.log(integral))


def _scaled_case(kind, norm, rng):
    """General M, rank-1 M (collinear clouds, a >> k) or s3 = -s2 (k = 0)."""
    if kind == "general":
        m = rng.standard_normal((3, 3))
    elif kind == "rank1":
        m = np.outer(rng.standard_normal(3), rng.standard_normal(3))
    else:
        m = _random_rotation(rng) @ np.diag([1.0, 0.6, -0.6]) @ _random_rotation(rng)
    return m * (norm / np.linalg.norm(m))


class TestSo3BetaHat:
    def test_zero_matrix_constant_integrand(self):
        assert so3_log_beta_hat(np.zeros((3, 3)), 1.0) == pytest.approx(
            math.log(4.0 * math.pi), abs=1e-12
        )

    def test_refinement_drift(self):
        # the error estimate is the drift from the 7-point Gauss rule to its
        # 15-point Kronrod refinement on the same panels
        rng = np.random.default_rng(5)
        m = rng.standard_normal((3, 3))
        value, error = so3_log_beta(m[None] / 0.8**2)
        assert value[0] == so3_log_beta_hat(m, 0.8)
        assert error[0] < 1e-6 * abs(value[0])

    def test_ratio_of_zero_matrices(self):
        stat = rho_so3()
        assert stat(np.zeros((1, 18)))[0] == pytest.approx(0.0, abs=1e-12)

    def test_rejects_bad_arguments(self):
        with pytest.raises(ValueError):
            so3_log_beta_hat(np.zeros((3, 3)), 0.0)
        with pytest.raises(ValueError):
            so3_log_beta_hat(np.zeros((2, 2)), 1.0)
        with pytest.raises(NumericalFailure):
            so3_log_beta(np.full((1, 3, 3), np.nan))

    @pytest.mark.parametrize("diag", [[1e308] * 3, [8e307] * 3, [1e308, 1e308, -1e308]])
    def test_overflowing_singular_value_sums_raise(self, diag):
        # finite entries whose a = (s1 - s2)/2, b = (s1 + s2)/2 or k = s2 + s3 overflow
        with np.errstate(over="ignore"), pytest.raises(
            NumericalFailure, match="singular-value sums overflow"
        ):
            so3_log_beta(np.diag(diag)[None])

    @pytest.mark.parametrize("norm", [0.0, 1.0, 20.0, 1e3, 1e5])
    @pytest.mark.parametrize("kind", ["general", "rank1", "k0"])
    def test_against_mpmath(self, kind, norm):
        rng = np.random.default_rng(int(norm) + len(kind))
        m = _scaled_case(kind, norm, rng)
        assert abs(so3_log_beta_hat(m, 1.0) - _mpmath_log_beta(m)) <= 1e-10

    @pytest.mark.parametrize("kind", ["general", "rank1", "k0"])
    def test_at_1e7_accurate_or_detected(self, kind):
        # log beta is near 1e7 there, where float64 spacing alone is 1.9e-9;
        # beyond that spacing the 1e-10 tolerance of smaller scales applies
        m = _scaled_case(kind, 1e7, np.random.default_rng(7))
        try:
            got = so3_log_beta_hat(m, 1.0)
        except NumericalFailure:
            return
        ref = _mpmath_log_beta(m)
        assert abs(got - ref) <= 1e-10 + 4 * np.spacing(abs(ref))

    def test_error_estimate_above_bound_raises(self, monkeypatch):
        monkeypatch.setattr(tight, "_MF_MAX_ERROR", 0.0)
        m = _scaled_case("general", 20.0, np.random.default_rng(3))
        with pytest.raises(NumericalFailure, match="error estimate .* singular values"):
            so3_log_beta_hat(m, 1.0)

    @pytest.mark.parametrize("norm", [1e9, 1e12])
    @pytest.mark.parametrize("kind", ["general", "rank1", "k0"])
    def test_error_estimate_small_at_extreme_scales(self, kind, norm):
        # panel counts grow with the logarithm of the scale
        m = _scaled_case(kind, norm, np.random.default_rng(4))
        assert so3_log_beta(m[None])[1][0] < 1e-6

    def test_invariant_under_rotations(self):
        rng = np.random.default_rng(11)
        for _ in range(20):
            m = 5.0 * rng.standard_normal((3, 3))
            moved = _random_rotation(rng) @ m @ _random_rotation(rng)
            assert abs(so3_log_beta_hat(m, 0.7) - so3_log_beta_hat(moved, 0.7)) <= 1e-12

    def test_proper_singular_values(self):
        rng = np.random.default_rng(12)
        u, v = _random_rotation(rng), _random_rotation(rng)
        for diag in ([3.0, 2.0, 1.0], [3.0, 2.0, -1.0], [3.0, 2.0, 0.0]):
            s = proper_singular_values((u @ np.diag(diag) @ v)[None])[0]
            assert s == pytest.approx(diag, abs=1e-12)

    @pytest.mark.parametrize("scale", [1e-300, -1e-300, 1e200])
    def test_proper_singular_values_sign_where_det_is_not_finite(self, scale):
        # det underflows to 0 (or overflows) here; the sign of s3 does not
        s = proper_singular_values(scale * np.eye(3)[None])[0]
        assert s == pytest.approx([abs(scale), abs(scale), scale], rel=1e-12)

    def test_rule_integrates_polynomials_exactly(self):
        # four panels on [0, 1]: Kronrod exact to degree 22, Gauss to 13
        nodes, weights, error_weights = tight._panels(4)
        assert nodes.size == 60 and np.all(np.diff(nodes) > 0)
        rng = np.random.default_rng(13)
        for degree, w in ((21, weights), (13, weights - error_weights)):
            coeffs = rng.uniform(-1.0, 1.0, degree + 1)
            exact = np.polyval(np.polyint(coeffs), 1.0)
            assert w @ np.polyval(coeffs, nodes) == pytest.approx(exact, abs=1e-14)

    def test_devec9_layout(self):
        m = devec9(np.arange(1.0, 10.0)[None])[0]
        assert np.array_equal(m[:, 0], [1.0, 2.0, 3.0])
        assert np.array_equal(m[:, 1], [4.0, 5.0, 6.0])
        assert np.array_equal(m[:, 2], [7.0, 8.0, 9.0])

    def test_quadrature_tables_read_only(self):
        # every call shares them
        for table in (tight._K15_NODES, tight._K15_WEIGHTS, tight._G7_ON_K15,
                      tight._UNIT_NODES, tight._UNIT_WEIGHTS, tight._UNIT_ERROR_WEIGHTS):
            with pytest.raises(ValueError, match="read-only"):
                table[0] = 0.0


def _mixed_scale_batch(rows, seed):
    """3 x 3 matrices whose Frobenius norms mix 1, 10, 1e3 and 1e5, so that
    rows need different panel counts."""
    rng = np.random.default_rng(seed)
    m = rng.standard_normal((rows, 3, 3))
    norms = np.array([1.0, 10.0, 1e3, 1e5])[rng.integers(0, 4, rows)]
    return m * (norms / np.linalg.norm(m, axis=(1, 2)))[:, None, None]


class TestSo3RowIndependence:
    """Each matrix's log beta and error estimate depend on that matrix alone,
    as the order-statistic bound over i.i.d. statistic values assumes."""

    @pytest.mark.parametrize("rows", [2047, 2048, 2049])
    def test_row_equals_single_row_call(self, rows):
        m = _mixed_scale_batch(rows, seed=rows)
        value, error = so3_log_beta(m)
        for i in range(rows):
            single_value, single_error = so3_log_beta(m[i : i + 1])
            assert single_value[0] == value[i] and single_error[0] == error[i], i

    def test_permuting_rows_permutes_output(self):
        m = _mixed_scale_batch(2049, seed=21)
        order = np.random.default_rng(22).permutation(2049)
        value, error = so3_log_beta(m)
        moved_value, moved_error = so3_log_beta(m[order])
        assert np.array_equal(moved_value, value[order])
        assert np.array_equal(moved_error, error[order])

    def test_chunk_size_changes_no_value(self, monkeypatch):
        m = _mixed_scale_batch(300, seed=23)
        value, error = so3_log_beta(m)
        monkeypatch.setattr(tight, "_MF_CHUNK", 7)
        small_value, small_error = so3_log_beta(m)
        assert np.array_equal(small_value, value) and np.array_equal(small_error, error)

    def test_empty_batch(self):
        value, error = so3_log_beta(np.zeros((0, 3, 3)))
        assert value.shape == (0,) and error.shape == (0,)


class TestSo3RuleValidation:
    def test_error_within_estimate(self, monkeypatch):
        # random proper singular values at scales 1 to 1e12, a third of them
        # rank 1 and a third with s3 = -s2 (k = 0); the reference is the same
        # rule on panels 40 times narrower
        rng = np.random.default_rng(2016)
        count = 2000
        scale = 10.0 ** rng.uniform(0.0, 12.0, count)
        s = np.sort(rng.uniform(0.0, 1.0, (count, 3)), axis=1)[:, ::-1] * scale[:, None]
        s[:, 2] *= rng.choice([-1.0, 1.0], count)
        kind = rng.integers(0, 3, count)
        s[kind == 1, 1:] = 0.0
        s[kind == 2, 2] = -s[kind == 2, 1]
        value, estimate = tight._log_mf_integral(s)
        monkeypatch.setattr(tight, "_MF_GRADED_WIDTH", tight._MF_GRADED_WIDTH / 40)
        monkeypatch.setattr(tight, "_MF_MIDDLE_WIDTH", tight._MF_MIDDLE_WIDTH / 40)
        reference = np.concatenate(
            [tight._log_mf_integral(s[i : i + 250])[0] for i in range(0, count, 250)]
        )
        error = np.abs(value - reference)
        worst = int(np.argmax(error / estimate))
        assert np.all(error <= estimate), (s[worst], error[worst], estimate[worst])


def _so3_samples(rows, scale, seed):
    """18-dim samples whose two 3 x 3 halves each have Frobenius norm ``scale``."""
    q = np.random.default_rng(seed).standard_normal((rows, 2, 9))
    q *= scale / np.linalg.norm(q, axis=2, keepdims=True)
    return q.reshape(rows, 18)


class TestRhoSo3Threads:
    """rho_so3 evaluates its two normalizers in one so3_log_beta call on the
    calling thread, the X' and X halves of each row interleaved; the values
    are bit for bit those of one call per half."""

    @pytest.mark.parametrize("scale", [10.0, 1e3, 1e5])
    @pytest.mark.parametrize("rows", [1, 7, 1000, 2047, 2048, 2049, 4500])
    def test_bit_identical_to_sequential(self, rows, scale):
        q = _so3_samples(rows, scale, seed=rows)
        sequential = so3_log_beta(devec9(q[:, :9]))[0] - so3_log_beta(devec9(q[:, 9:]))[0]
        assert np.array_equal(rho_so3()(q), sequential)

    def test_perturbed_half_error_wins(self, monkeypatch):
        # both halves fail; the X' half's error is the one raised
        monkeypatch.setattr(tight, "_MF_MAX_ERROR", 0.0)
        q = _so3_samples(5, 20.0, seed=1)
        q[2, 4] = np.nan
        with pytest.raises(NumericalFailure, match="non-finite"):
            rho_so3()(q)

    def test_clean_half_error_alone(self, monkeypatch):
        monkeypatch.setattr(tight, "_MF_MAX_ERROR", 0.0)
        q = _so3_samples(5, 20.0, seed=2)
        with pytest.raises(NumericalFailure, match="error estimate"):
            so3_log_beta(devec9(q[:, 9:]))
        q[:, :9] = 0.0  # log beta of the zero matrix has zero error estimate
        with pytest.raises(NumericalFailure, match="error estimate"):
            rho_so3()(q)


class TestSo3Problem:
    def test_zero_perturbation(self):
        rng = np.random.default_rng(6)
        x = PointCloud(rng.standard_normal((5, 3)))
        problem = build_so3_problem(x, x, 0.5)
        assert np.array_equal(problem.mean_perturbed, problem.mean_clean)
        assert problem.factor.shape == (18, 9)   # [X, X] has rank 3

    def test_gram_psd(self):
        # F F^T and the means are the projection's sigma^2 W W^T and W vec(C)
        rng = np.random.default_rng(7)
        for _ in range(5):
            x, xp = _pair(rng, 6, 3, scale=0.5)
            problem = build_so3_problem(x, xp, 0.4)
            assert problem.factor.shape == (18, 18)
            w = so3_projection_matrix(x, xp, 0.4)
            covariance = 0.16 * (w @ w.T)
            top = np.abs(covariance).max()
            assert np.abs(problem.factor @ problem.factor.T - covariance).max() <= 1e-13 * top
            for mean, cloud in ((problem.mean_perturbed, xp), (problem.mean_clean, x)):
                expected = w @ cloud.data.T.ravel()
                assert np.abs(mean - expected).max() <= 1e-13 * np.abs(expected).max()

    def test_statistic_matches_unreduced(self):
        # the 18-dim projection reproduces the full cross-matrix statistic
        rng = np.random.default_rng(8)
        sigma = 0.6
        x, xp = _pair(rng, 5, 3, scale=0.4)
        w = so3_projection_matrix(x, xp, sigma)
        stat = rho_so3()
        zs = x.data[None] + sigma * rng.standard_normal((200, 5, 3))
        vec = np.stack([zs[:, :, 0], zs[:, :, 1], zs[:, :, 2]], axis=1).reshape(200, -1)
        reduced = stat(vec @ w.T)
        m1 = np.einsum("ni,knj->kij", xp.data, zs) / sigma**2
        m2 = np.einsum("ni,knj->kij", x.data, zs) / sigma**2
        full = so3_log_beta(m1)[0] - so3_log_beta(m2)[0]
        assert np.max(np.abs(reduced - full)) < 1e-10

    def test_scale_invariance_bitwise(self):
        rng = np.random.default_rng(9)
        x, xp = _pair(rng, 5, 3, scale=0.4)
        a = build_so3_problem(x, xp, 0.5)
        c = 2.0
        b = build_so3_problem(PointCloud(c * x.data), PointCloud(c * xp.data), c * 0.5)
        assert np.array_equal(a.mean_perturbed, b.mean_perturbed)
        assert np.array_equal(a.mean_clean, b.mean_clean)
        assert np.array_equal(a.factor, b.factor)

    @pytest.mark.parametrize(
        "dim,seed", [(3, 0), (3, 1), (2, 0), (2, 1)], ids=["0", "1", "2d-0", "2d-1"]
    )
    def test_draws_follow_the_projection_law(self, dim, seed):
        # 2e5 draws from either mean: sample mean and covariance against the
        # projection's W vec(C) and sigma^2 W W^T, within 5 standard errors
        rng = np.random.default_rng(70 + seed)
        x, xp = _pair(rng, 8, dim, scale=0.5)
        if dim == 2:
            problem, w = build_so2_problem(x, xp, 0.7), so2_projection_matrix(x, xp, 0.7)
        else:
            problem, w = build_so3_problem(x, xp, 0.7), so3_projection_matrix(x, xp, 0.7)
        covariance = 0.49 * (w @ w.T)
        variance = np.diag(covariance)
        n = 200_000
        for mean, cloud in ((problem.mean_perturbed, xp), (problem.mean_clean, x)):
            draws = sample_gaussian(mean, n, rng, problem.factor)
            expected = w @ cloud.data.T.ravel()
            assert np.all(np.abs(draws.mean(axis=0) - expected) <= 5.0 * np.sqrt(variance / n))
            spread = np.sqrt((np.outer(variance, variance) + covariance**2) / n)
            assert np.all(np.abs(np.cov(draws.T) - covariance) <= 5.0 * spread)

    @pytest.mark.parametrize("n_points", [16, 1024])
    @pytest.mark.parametrize("scale", [10.0, 1e3, 1e5])
    def test_exact_rotation_keeps_rank_three(self, scale, n_points):
        # |X||X'| / sigma^2 = scale: [X', X] = X [R^T, I] has rank 3, so the
        # factor has 9 columns and no rounding-noise directions
        rng = np.random.default_rng(int(scale) + n_points)
        for _ in range(5):
            x = rng.standard_normal((n_points, 3))
            x *= math.sqrt(scale) / np.linalg.norm(x)
            xp = x @ _random_rotation(rng).T
            problem = build_so3_problem(PointCloud(x), PointCloud(xp), 1.0)
            assert problem.factor.shape == (18, 9)

    def test_zero_clouds_have_an_empty_factor(self):
        # X = X' = 0: rank 0, every draw is the zero mean, and the statistic
        # is 0 on each, so the inverse certificate still runs
        x = PointCloud(np.zeros((4, 3)))
        problem = build_so3_problem(x, x, 0.5)
        assert problem.factor.shape == (18, 0)
        assert not problem.mean_clean.any() and not problem.mean_perturbed.any()
        draws = sample_gaussian(problem.mean_clean, 5, np.random.default_rng(0), problem.factor)
        assert draws.shape == (5, 18) and not draws.any()
        mc = McConfig(n2=100, n3=100, alpha=0.01)
        for group in (SO3, SE3):
            assert 0.5 <= inverse_certificate(group, x, x, 0.5, mc, seed=1) <= 1.0

    @pytest.mark.parametrize("sigma", [1.0, 0.5])
    def test_overflowing_singular_values_are_refused(self, sigma):
        # entries of 1e308: at sigma 1 the largest singular value overflows,
        # at 0.5 the scaled entries do; refused, not reduced to rank 0
        x = PointCloud(np.full((6, 3), 1e308))
        message = re.escape(f"reduced problem at sigma={sigma!r}")
        with pytest.raises(NumericalFailure, match=message):
            build_so3_problem(x, x, sigma)

    def test_rejects_2d(self):
        x = PointCloud(np.ones((3, 2)))
        with pytest.raises(ValueError):
            build_so3_problem(x, x, 0.5)

    def test_rejects_different_shapes(self):
        rng = np.random.default_rng(32)
        x = PointCloud(rng.standard_normal((4, 3)))
        xp = PointCloud(rng.standard_normal((2, 3)))
        with pytest.raises(ValueError, match="different shapes"):
            build_so3_problem(x, xp, 0.5)


class TestCertifyRotationTight:
    def test_zero_perturbation_recovers_p(self):
        rng = np.random.default_rng(10)
        x = PointCloud(rng.standard_normal((5, 2)) * 0.3)
        mc = McConfig(n2=100_000, n3=100_000, alpha=0.001)
        out = certify_tight(SO2, x, x, 0.8, 0.5, mc, seed=1)
        assert 0.78 <= out.bound_value <= 0.80
        assert out.certified

    def test_paper_scaling_fixture(self):
        # sigma = 0.5, |X| = 0.01, p = 0.8, pure scaling: the tight certificate
        # reaches perturbation norms far beyond the 0.4208 black-box radius
        mc = McConfig(n2=100_000, n3=100_000, alpha=0.001)
        certified = {}
        for nd in (0.7, 0.8):
            problem_seed = 42
            rng = np.random.default_rng(11)
            x = rng.standard_normal((8, 2))
            x *= 0.01 / np.linalg.norm(x)
            xp = x * (1.0 + nd / 0.01)
            out = certify_tight(
                SO2, PointCloud(x), PointCloud(xp), 0.8, 0.5, mc, seed=problem_seed
            )
            certified[nd] = out.certified
        assert certified[0.7]
        assert not certified[0.8]

    def test_dominates_orbit_value(self):
        # strictness regime |X| <= sigma / 10
        rng = np.random.default_rng(12)
        sigma = 0.5
        wins = 0
        for i in range(20):
            x, xp = _pair(rng, 5, 2, scale=float(rng.uniform(0.1, 0.5)),
                          norm_x=float(rng.uniform(0.001, sigma / 10)))
            p = float(rng.uniform(0.55, 0.95))
            tight = certify_tight(SO2, x, xp, p, sigma, FAST_MC, seed=100 + i)
            res = project_rotation(x, xp).residual
            orbit_value = std_normal_cdf(std_normal_quantile(p) - res / sigma)
            se = math.sqrt(tight.bound_value * (1 - tight.bound_value) / FAST_MC.n3)
            assert tight.bound_value >= orbit_value - 3 * se
            if tight.bound_value - orbit_value > 0.01:
                wins += 1
        assert wins >= 10

    def test_monotone_in_p_lower_paired_seeds(self):
        rng = np.random.default_rng(13)
        x, xp = _pair(rng, 5, 2, scale=0.3)
        bounds = [
            certify_tight(SO2, x, xp, p, 0.5, FAST_MC, seed=7).bound_value
            for p in (0.6, 0.7, 0.8, 0.9)
        ]
        assert all(a <= b + 1e-12 for a, b in zip(bounds, bounds[1:]))

    def test_monotone_in_norm_delta_scaling_ray(self):
        rng = np.random.default_rng(14)
        x = rng.standard_normal((5, 2))
        x *= 0.01 / np.linalg.norm(x)
        bounds = []
        for nd in (0.2, 0.4, 0.6, 0.8):
            xp = x * (1.0 + nd / 0.01)
            out = certify_tight(
                SO2, PointCloud(x), PointCloud(xp), 0.8, 0.5, FAST_MC, seed=9
            )
            bounds.append(out.bound_value)
        assert all(a >= b - 1e-12 for a, b in zip(bounds, bounds[1:]))

    def test_se_reduction_bit_identical(self):
        rng = np.random.default_rng(15)
        for i, (dim, gse, gso) in enumerate(((2, SE2, SO2), (3, SE3, SO3))):
            x, xp = _pair(rng, 6, dim, scale=0.4)
            mc = McConfig(n2=500, n3=500, alpha=0.01)
            a = certify_tight(gse, x, xp, 0.85, 0.5, mc, seed=50 + i)
            b = certify_tight(
                gso, center(x), center(xp), 0.85, 0.5, mc, seed=50 + i
            )
            assert a.bound_value == b.bound_value
            assert a.kappa_log == b.kappa_log

    def test_rotation_invariance_2d_and_3d(self):
        rng = np.random.default_rng(16)
        for i in range(40):
            x, xp = _pair(rng, 5, 2, scale=0.25)
            a = certify_tight(SO2, x, xp, 0.8, 0.4, FAST_MC, seed=60 + i)
            rotated = PointCloud(xp.data @ rot2(rng.uniform(0, 2 * math.pi)).T)
            b = certify_tight(SO2, x, rotated, 0.8, 0.4, FAST_MC, seed=60 + i)
            tol = 3 * _combined_se(a.bound_value, b.bound_value, FAST_MC)
            assert abs(a.bound_value - b.bound_value) <= tol
        mc3 = McConfig(n2=4000, n3=4000, alpha=0.001)
        for i in range(10):
            x, xp = _pair(rng, 5, 3, scale=0.25, norm_x=0.5)
            a = certify_tight(SO3, x, xp, 0.8, 0.4, mc3, seed=70 + i)
            r = rot3_zyx(rng.uniform(-1.0, 1.0, 3))
            b = certify_tight(
                SO3, x, PointCloud(xp.data @ r.T), 0.8, 0.4, mc3, seed=70 + i
            )
            tol = 3 * _combined_se(a.bound_value, b.bound_value, mc3)
            assert abs(a.bound_value - b.bound_value) <= tol

    # the ids the group objects were given before groups became GroupKind values
    @pytest.mark.parametrize("group", [SO3, SE3], ids=["group0", "group1"])
    def test_exact_rotation_certified_at_large_scale(self, group):
        # |X||X'| / sigma^2 = 1e4: a statistic that loses accuracy with the
        # data scale drops the bound of an exact rotation below 1/2
        rng = np.random.default_rng(18)
        x = rng.standard_normal((16, 3)) * [1.0, 0.6, 0.3]
        xp = x @ rot3_zyx([0.7, -0.3, 0.5]).T
        if group is SE3:
            xp = xp + rng.standard_normal(3)
        sigma = float(np.linalg.norm(x)) / 100.0
        mc = McConfig(n2=1000, n3=1000, alpha=0.001)
        out = certify_tight(group, PointCloud(x), PointCloud(xp), 0.9, sigma, mc, seed=5)
        assert out.certified

    def test_pure_rotation_matches_zero_perturbation(self):
        # X' = X R^T carries no usable perturbation for a rotation-invariant
        # model: the tight bound statistically equals the Delta = 0 bound
        rng = np.random.default_rng(17)
        mc = McConfig(n2=10000, n3=10000, alpha=0.001)
        for dim, group in ((2, SO2), (3, SO3)):
            x = rng.standard_normal((5, dim))
            x *= 0.5 / np.linalg.norm(x)
            x = PointCloud(x)
            rot = rot2(1.1) if dim == 2 else rot3_zyx([0.9, -0.4, 0.6])
            xp = PointCloud(x.data @ rot.T)
            a = certify_tight(group, x, x, 0.8, 0.4, mc, seed=91)
            b = certify_tight(group, x, xp, 0.8, 0.4, mc, seed=91)
            tol = 3 * _combined_se(a.bound_value, b.bound_value, mc)
            assert abs(a.bound_value - b.bound_value) <= tol

    def test_exact_rotation_bound_never_exceeds_p(self):
        # X' = X R^T (plus a translation for SE): an invariant classifier has
        # probability p at X', so no sound lower bound exceeds p
        mc = McConfig(n2=1000, n3=1000, alpha=1e-3)
        bounds = []
        for group in (SO2, SE2):
            for scale in (10.0, 1e3, 1e5):    # |X|^2 / sigma^2 at sigma = 1
                for seed in range(30):
                    rng = np.random.default_rng(seed)
                    x = rng.standard_normal((32, 2))
                    x *= math.sqrt(scale) / np.linalg.norm(x)
                    xp = x @ rot2(rng.uniform(0.0, 2.0 * math.pi)).T
                    if group is SE2:
                        xp = xp + rng.standard_normal(2)
                    out = certify_tight(group, PointCloud(x), PointCloud(xp), 0.9, 1.0, mc, seed)
                    bounds.append(out.bound_value)
        assert max(bounds) <= 0.9 + 1e-12

    def test_unsupported_group(self):
        x = PointCloud(np.eye(2))
        for group in (GroupKind.PERMUTATION, GroupKind.ORTHOGONAL, None):
            with pytest.raises(ValueError, match="certify_tight: unsupported group"):
                certify_tight(group, x, x, 0.8, 0.5, FAST_MC, seed=1)

    def test_sound_against_invariant_classifier_reference(self):
        # the bound must stay below the actual perturbed probability of a
        # concrete roto-translation-invariant classifier (SE path)
        from invarcert.mc import smooth_predict
        from invarcert.oracles import SyntheticClassifier
        from reference import reference_probability

        rng = np.random.default_rng(28)
        sigma = 0.5
        x = PointCloud(rng.standard_normal((5, 2)) * 0.4)
        delta = rng.standard_normal((5, 2))
        delta *= 0.35 / np.linalg.norm(delta)
        xp = PointCloud(x.data + delta)
        g = SyntheticClassifier("centered-norm", 2.4)
        label, p_lower = smooth_predict(g, x, sigma, 4000, 0.001, seed=15)
        assert label == 1
        reference = reference_probability(g, xp, sigma, 2_000_000, seed=16, label=1)
        out = certify_tight(SE2, x, xp, p_lower, sigma, FAST_MC, seed=17)
        assert out.bound_value <= reference.probability + 3 * reference.std_error


class TestOrbitFloor:
    """An SO/SE tight lower bound is never below the orbit certificate's
    bound, and a multi-class upper bound never above the orbit ceiling;
    where either lies within _FLOOR_SKIP of its p, no sample is drawn."""

    MC = McConfig(n2=1000, n3=1000, alpha=0.01)

    # |X| and the noise in units of sigma: at |X| = 0.02 sigma the
    # Monte-Carlo bound often beats the floor, at 3 sigma it rarely does
    @settings(max_examples=60, deadline=None)
    @given(
        dim=st.sampled_from([2, 3]),
        kind=st.sampled_from([GroupKind.ROTATION, GroupKind.ROTO_TRANSLATION]),
        n=st.integers(3, 8),
        norm_x=st.sampled_from([0.02, 0.3, 3.0]),
        noise=st.sampled_from([0.0, 1e-6, 0.05, 0.3, 1.0]),
        sigma=st.floats(0.1, 2.0),
        p=st.floats(0.55, 0.999),
        pb=st.floats(0.001, 0.45),
        seed=st.integers(0, 2**16),
    )
    def test_floor_and_ceiling(self, dim, kind, n, norm_x, noise, sigma, p, pb, seed):
        rng = np.random.default_rng(seed)
        x = rng.standard_normal((n, dim))
        x *= norm_x * sigma / np.linalg.norm(x)
        r = rot2(rng.uniform(0.0, 2.0 * math.pi)) if dim == 2 else rot3_zyx(rng.uniform(-3, 3, 3))
        xp = x @ r.T + noise * sigma * rng.standard_normal((n, dim))
        if kind is GroupKind.ROTO_TRANSLATION:
            xp = xp + rng.standard_normal(dim)
        x, xp = PointCloud(x), PointCloud(xp)
        tight_out, multi = certify_tight_and_multiclass(kind, x, xp, p, sigma, self.MC, seed,
                                                        p_upper=pb)
        orbit = certify_orbit(kind, x, xp, p, sigma)
        upper = float(multi.notes[-1].partition("=")[2])
        assert tight_out.bound_value >= orbit.bound_value
        assert upper <= shift_bound(pb, -orbit.residual, sigma)
        assert multi.bound_value == tight_out.bound_value
        if "mc-skipped" in tight_out.notes:
            floor_reported = True
            assert tight_out.kappa_log is None
        else:
            problem = tight._rotation_problem(kind, x, xp, sigma)
            raw = prob_certify_reduced(problem, self.MC, seed, p_lower=p)
            floor_reported = raw.bound_value < orbit.bound_value
            assert tight_out.kappa_log == raw.kappa_log
            if not floor_reported:
                assert tight_out.bound_value == raw.bound_value
        assert ("orbit-floor" in tight_out.notes) == floor_reported
        if floor_reported:
            assert tight_out.bound_value == orbit.bound_value

    @pytest.mark.parametrize("dim", [2, 3])
    @pytest.mark.parametrize("kind", [GroupKind.ROTATION, GroupKind.ROTO_TRANSLATION],
                             ids=["SO", "SE"])
    def test_orbit_member_draws_nothing(self, kind, dim, monkeypatch):
        def refuse(*args):
            raise AssertionError("an orbit member drew a sample")

        monkeypatch.setattr(mc_engine, "_samples", refuse)
        rng = np.random.default_rng(70 + dim)
        x = rng.standard_normal((16, dim)) * 30.0
        r = rot2(0.9) if dim == 2 else rot3_zyx([0.9, -0.4, 0.6])
        for xp in (x, x @ r.T + (kind is GroupKind.ROTO_TRANSLATION) * rng.standard_normal(dim)):
            x_c, xp_c = PointCloud(x), PointCloud(xp)
            tight_out, multi = certify_tight_and_multiclass(
                kind, x_c, xp_c, 0.9, 1.0, FAST_MC, 1, p_upper=0.05
            )
            orbit = certify_orbit(kind, x_c, xp_c, 0.9, 1.0)
            assert tight_out.bound_value == orbit.bound_value
            assert 0.9 - 1e-12 <= tight_out.bound_value <= 0.9
            assert tight_out.kappa_log is None
            assert tight_out.notes == ("p-lower-supplied", "orbit-floor", "mc-skipped")
            assert tight_out.certified and multi.certified
            upper = float(multi.notes[-1].partition("=")[2])
            assert 0.05 <= upper <= 0.05 + 1e-12

    _FAR = np.random.default_rng(5).standard_normal((2, 8, 3)) * np.array([[[1e200]], [[1e100]]])

    @pytest.mark.parametrize(
        "kind, clean, perturbed, sigma",
        [
            # |X|^2 overflows near 1e200 although |X| and d are finite
            (GroupKind.ROTATION, *_FAR, 1e201),
            (GroupKind.ROTO_TRANSLATION, *_FAR, 1e201),
            # |X| + |X'| overflows although d = sqrt(2) 1e308 is finite
            (GroupKind.ROTATION, [[1e308, 0, 0], [0, 0, 0]], [[0, 0, 0], [1e308, 0, 0]], 1e308),
        ],
        ids=["SO-1e200", "SE-1e200", "SO-1e308"],
    )
    def test_overflowing_cloud_norm_keeps_the_monte_carlo_stage(
        self, kind, clean, perturbed, sigma
    ):
        # the problem in units of sigma is finite: X' is no orbit member, and
        # the draws are made
        x, xp = PointCloud(np.array(clean, float)), PointCloud(np.array(perturbed, float))
        distance, member = tight._orbit_distance(kind, x, xp)
        assert math.isfinite(distance) and not member
        tight_out, multi = certify_tight_and_multiclass(
            kind, x, xp, 0.999, sigma, FAST_MC, 1, p_upper=0.001
        )
        assert "mc-skipped" not in tight_out.notes
        assert tight_out.kappa_log is not None
        assert tight_out.bound_value >= certify_orbit(kind, x, xp, 0.999, sigma).bound_value
        assert multi.bound_value == tight_out.bound_value


def _noisy_pair(rng, kind, dim, scale, noise, n=8):
    """X and X' = X R^T plus noise of norm ``noise`` (about, in units of
    sigma = 1), with |X|^2 = scale, so |X||X'| / sigma^2 is about scale."""
    x = rng.standard_normal((n, dim))
    x *= math.sqrt(scale) / np.linalg.norm(x)
    r = rot2(rng.uniform(0.0, 2.0 * math.pi)) if dim == 2 else rot3_zyx(rng.uniform(-3, 3, 3))
    xp = x @ r.T + noise * rng.standard_normal((n, dim)) / math.sqrt(n * dim)
    if kind is GroupKind.ROTO_TRANSLATION:
        xp = xp + rng.standard_normal(dim)
    return PointCloud(x), PointCloud(xp)


def _exact_floored(problem, mc, seed, p_lower, floor):
    """The exact path: the full count, then max(Monte-Carlo bound, floor)."""
    raw = prob_certify_reduced(problem, mc, seed, p_lower=p_lower)
    if raw.bound_value >= floor:
        return raw
    return dataclasses.replace(
        raw, certified=floor > 0.5, bound_value=floor, notes=raw.notes + ("orbit-floor",)
    )


def _edge(value, mc_value, edge):
    """The orbit value, or the Monte-Carlo value itself, or the float just
    below or above it: the shortcut's comparisons are strict or not there."""
    return {"orbit": value, "mc": mc_value, "below": np.nextafter(mc_value, -1.0),
            "above": np.nextafter(mc_value, 2.0)}[edge]


def _assert_floor_aware_matches_exact(build, mc, seed, p, pb, edge, warm):
    """The floor-aware lower and the ceiling-aware upper bound of a problem
    equal (==, and repr) the exact path's; ``warm`` cuts the pair first."""
    problem, residual = build()
    fresh, _ = build()
    exact_lower = prob_certify_reduced(fresh, mc, seed, p_lower=p)
    exact_upper = prob_certify_upper_reduced(fresh, mc, seed, p_upper=pb)
    floor = _edge(shift_bound(p, residual, problem.sigma), exact_lower.bound_value, edge)
    ceiling = _edge(shift_bound(pb, -residual, problem.sigma), exact_upper, edge)
    if warm is not None:
        kind, level = warm
        if kind == "lower":
            prob_certify_reduced(problem, mc, seed, p_lower=level)
        else:
            prob_certify_upper_reduced(problem, mc, seed, p_upper=level)
    got_lower = prob_certify_reduced(problem, mc, seed, p_lower=p, floor=floor)
    got_upper = prob_certify_upper_reduced(problem, mc, seed, p_upper=pb, ceiling=ceiling)
    want_lower = _exact_floored(fresh, mc, seed, p, floor)
    want_upper = min(exact_upper, ceiling)
    assert got_lower == want_lower and repr(got_lower) == repr(want_lower)
    assert repr(got_upper) == repr(want_upper)
    return got_lower, got_upper, ceiling


def _rotation_fixture(kind, x, xp, sigma=1.0):
    return lambda: (tight._rotation_problem(kind, x, xp, sigma),
                    tight._orbit_distance(kind, x, xp)[0])


def _recording(monkeypatch, dim, rows, marked=None):
    """Replace the statistic of every reduced problem ``tight`` builds by one
    whose evaluator records each batch it is given; rows equal to ``marked``
    get the bracket (-inf, inf), and the evaluator refuses them, as the
    real ones do beyond what they can bound."""
    real = (tight.rho_so2 if dim == 2 else tight.rho_so3)()

    def is_marked(q):
        return np.zeros(q.shape[0], bool) if marked is None else np.all(q == marked, axis=1)

    def evaluator(q):
        rows.append(q.copy())
        if is_marked(q).any():
            raise NumericalFailure("argument beyond what the statistic can evaluate")
        return real.evaluator(q)

    def bracket(q):
        lo, hi = real.bracket(q)
        lo[is_marked(q)], hi[is_marked(q)] = -np.inf, np.inf
        return lo, hi

    statistic = LikelihoodStatistic(real.dim, evaluator, bracket)
    monkeypatch.setattr(tight, "rho_so2" if dim == 2 else "rho_so3", lambda: statistic)


class TestFloorAwareCount:
    """The lower bound given the orbit floor, and the upper bound given the
    orbit ceiling, leave the count rows (and, for the upper bound, every
    row) unevaluated where the brackets show that the floor or ceiling
    wins; their outcomes stay those of the full count followed by max or
    min, on fresh pairs and on pairs an earlier cut already refined."""

    MC = McConfig(n2=600, n3=600, alpha=0.001)

    @settings(max_examples=40, deadline=None)
    @given(
        dim=st.sampled_from([2, 3]),
        kind=st.sampled_from([GroupKind.ROTATION, GroupKind.ROTO_TRANSLATION]),
        scale=st.sampled_from([0.1, 1.0, 10.0, 1e3, 1e5]),
        noise=st.sampled_from([0.5, 1.0, 2.0]),
        p=st.floats(0.55, 0.999),
        pb=st.floats(0.001, 0.45),
        edge=st.sampled_from(["orbit", "orbit", "mc", "below", "above"]),
        warm=st.one_of(st.none(), st.tuples(st.sampled_from(["lower", "upper"]),
                                            st.floats(0.01, 0.99))),
        seed=st.integers(0, 2**16),
    )
    def test_matches_exact_path(self, dim, kind, scale, noise, p, pb, edge, warm, seed):
        x, xp = _noisy_pair(np.random.default_rng(seed), kind, dim, scale, noise)
        _assert_floor_aware_matches_exact(
            _rotation_fixture(kind, x, xp), self.MC, seed, p, pb, edge, warm
        )

    @pytest.mark.parametrize("edge", ["orbit", "mc", "below", "above"])
    @pytest.mark.parametrize("warm", [None, ("lower", 0.3), ("upper", 0.2)])
    def test_zero_covariance_ties(self, edge, warm):
        # a zero factor makes every draw its mean: one tie group, counted at
        # its share; the orbit floor here is p, and the ceiling p_upper
        def build():
            return so2_problem_from_params(0.0, 0.0, 0.0, 0.0, 0.5), 0.0

        lower, upper, _ = _assert_floor_aware_matches_exact(
            build, self.MC, 3, 0.9, 0.05, edge, warm
        )
        assert lower.kappa_log == 0.0

    # (dim, |X||X'| / sigma^2, noise / sigma, fixture seed, floor and ceiling win)
    @pytest.mark.parametrize("dim, scale, noise, seed, orbit_wins", [
        (2, 0.1, 2.0, 4, False), (3, 0.1, 1.0, 0, False),
        (2, 1e3, 1.0, 0, True), (3, 1e3, 1.0, 0, True),
    ])
    def test_both_winners_occur(self, dim, scale, noise, seed, orbit_wins):
        x, xp = _noisy_pair(np.random.default_rng(seed), GroupKind.ROTATION, dim, scale, noise)
        lower, upper, ceiling = _assert_floor_aware_matches_exact(
            _rotation_fixture(GroupKind.ROTATION, x, xp), self.MC, 5, 0.9, 0.05, "orbit", None
        )
        assert ("orbit-floor" in lower.notes) == orbit_wins
        assert (upper == ceiling) == orbit_wins

    @pytest.mark.parametrize("kind", [GroupKind.ROTATION, GroupKind.ROTO_TRANSLATION],
                             ids=["SO", "SE"])
    def test_noisy_3d_spy(self, kind, monkeypatch):
        # the floor and the ceiling win: the lower stage evaluates threshold
        # rows only, and the upper stage makes no evaluator call at all
        x, xp = _noisy_pair(np.random.default_rng(12), kind, 3, 1e3, 1.0, n=16)
        rows = []
        _recording(monkeypatch, 3, rows)
        tight_alone, _ = certify_tight_and_multiclass(kind, x, xp, 0.9, 1.0, self.MC, 7)
        alone = [batch.tobytes() for batch in rows]
        rows.clear()
        tight_out, multi = certify_tight_and_multiclass(kind, x, xp, 0.9, 1.0, self.MC, 7,
                                                        p_upper=0.05)
        assert tight_out == tight_alone and tight_out.kappa_log is not None
        assert "orbit-floor" in tight_out.notes
        residual = tight._orbit_distance(kind, x, xp)[0]
        assert multi.notes[-1] == f"competitor-upper={shift_bound(0.05, -residual, 1.0)!r}"
        assert [batch.tobytes() for batch in rows] == alone
        # the same draws, from the seed rule
        pair = mc_engine._samples(tight._rotation_problem(kind, x, xp, 1.0), self.MC, 7, 1)
        count_rows = {row.tobytes() for row in pair[1].draws}
        evaluated = np.concatenate(rows)
        assert 0 < len(evaluated) < self.MC.n2
        assert not any(row.tobytes() in count_rows for row in evaluated)

    @pytest.mark.parametrize("dim", [2, 3])
    def test_unbounded_count_row_still_refused(self, dim, monkeypatch):
        # where the floor would win, a count row whose bracket is unbounded
        # still reaches the evaluator, whose refusal is raised as before
        kind, sigma, seed = GroupKind.ROTATION, 1.0, 7
        x, xp = _noisy_pair(np.random.default_rng(15), kind, dim, 1e3, 1.0)
        rows = []
        _recording(monkeypatch, dim, rows)
        out, multi = certify_tight_and_multiclass(kind, x, xp, 0.9, sigma, self.MC, seed,
                                                  p_upper=0.05)
        assert "orbit-floor" in out.notes
        pair = mc_engine._samples(tight._rotation_problem(kind, x, xp, sigma), self.MC, seed, 1)
        count_rows = {row.tobytes() for row in pair[1].draws}
        assert not any(row.tobytes() in count_rows for row in np.concatenate(rows))
        _recording(monkeypatch, dim, rows, marked=pair[1].draws[17].copy())
        message = re.escape(f"reduced problem at sigma={sigma!r}: argument beyond")
        with pytest.raises(NumericalFailure, match=message):
            certify_tight_and_multiclass(kind, x, xp, 0.9, sigma, self.MC, seed, p_upper=0.05)
        # the upper stage alone, where the ceiling would win
        problem = tight._rotation_problem(kind, x, xp, sigma)
        with pytest.raises(NumericalFailure, match=message):
            tight._capped_upper(problem, self.MC, seed, 0.05, *tight._orbit_distance(kind, x, xp))


def _combined_se(a, b, mc):
    # both the threshold stage (n2) and the counting stage (n3) contribute
    sa = math.sqrt(max(a * (1 - a), 0.05)) * math.sqrt(1 / mc.n2 + 1 / mc.n3)
    sb = math.sqrt(max(b * (1 - b), 0.05)) * math.sqrt(1 / mc.n2 + 1 / mc.n3)
    return sa + sb


class TestUpperBound:
    @staticmethod
    def _upper(x, xp, p, mc, seed):
        problem = build_so2_problem(x, xp, 0.5)
        return prob_certify_upper_reduced(problem, mc, seed, p_upper=p)

    def test_identical_distributions(self):
        rng = np.random.default_rng(17)
        x = PointCloud(rng.standard_normal((5, 2)) * 0.3)
        mc = McConfig(n2=100_000, n3=100_000, alpha=0.001)
        up = self._upper(x, x, 0.1, mc, seed=3)
        assert 0.10 <= up <= 0.12

    def test_monotone_in_p_upper(self):
        rng = np.random.default_rng(18)
        x, xp = _pair(rng, 5, 2, scale=0.3)
        ups = [self._upper(x, xp, p, FAST_MC, seed=4) for p in (0.05, 0.1, 0.2, 0.4)]
        assert all(a <= b + 1e-12 for a, b in zip(ups, ups[1:]))

    def test_at_least_lower_bound(self):
        rng = np.random.default_rng(19)
        x, xp = _pair(rng, 5, 2, scale=0.3)
        lower = certify_tight(SO2, x, xp, 0.3, 0.5, FAST_MC, seed=5).bound_value
        upper = self._upper(x, xp, 0.3, FAST_MC, seed=5)
        assert upper >= lower - 1e-12

    def test_dominated_by_blackbox_form(self):
        rng = np.random.default_rng(20)
        mc = McConfig(n2=20000, n3=20000, alpha=0.001)
        for i in range(5):
            x, xp = _pair(rng, 5, 2, scale=0.25)
            nd = float(np.linalg.norm(xp.data - x.data))
            up = self._upper(x, xp, 0.1, mc, seed=30 + i)
            blackbox = std_normal_cdf(std_normal_quantile(0.1) + nd / 0.5)
            tol = 3 * _combined_se(up, blackbox, mc)
            assert up <= blackbox + tol


class TestMulticlass:
    def test_blackbox_radius_value(self):
        assert multiclass_radius(0.8, 0.2, 0.5) == pytest.approx(0.4208106167864571, abs=1e-4)

    def test_symmetric_pb_collapses_to_binary(self):
        rng = np.random.default_rng(21)
        for _ in range(20):
            pa = float(rng.uniform(0.55, 0.99))
            sigma = float(rng.uniform(0.1, 1.0))
            assert multiclass_radius(pa, 1.0 - pa, sigma) == pytest.approx(
                sigma * std_normal_quantile(pa), rel=1e-12
            )

    def test_zero_perturbation_certifies(self):
        rng = np.random.default_rng(22)
        x = PointCloud(rng.standard_normal((4, 2)) * 0.2)
        out = certify_multiclass(SO2, x, x, 0.7, 0.2, 0.5, FAST_MC, seed=6)
        assert out.certified

    def test_pa_below_pb_flagged_not_error(self):
        x = PointCloud(np.eye(2))
        out = certify_multiclass(None, x, x, 0.3, 0.4, 0.5, FAST_MC, seed=7)
        assert not out.certified
        assert "pa-not-above-pb" in out.notes

    def test_blackbox_group_radius_comparison(self):
        x = PointCloud(np.array([[1.0, 0.0], [-1.0, 0.0]]))
        delta = np.array([[0.0, 1.0], [0.0, -1.0]]) / math.sqrt(2.0)
        near = PointCloud(x.data + 0.41 * delta)
        far = PointCloud(x.data + 0.43 * delta)
        assert certify_multiclass(None, x, near, 0.8, 0.2, 0.5, FAST_MC, seed=8).certified
        assert not certify_multiclass(None, x, far, 0.8, 0.2, 0.5, FAST_MC, seed=8).certified


class TestInverseCertificate:
    def test_blackbox_closed_form(self):
        x = PointCloud(np.array([[1.0, 0.0]]))
        xp = PointCloud(np.array([[1.0, 0.5]]))  # |Delta| = sigma = 0.5
        got = inverse_certificate(None, x, xp, 0.5, FAST_MC, seed=9)
        assert got == pytest.approx(std_normal_cdf(1.0), abs=1e-4)
        assert got == pytest.approx(0.8413, abs=1e-4)

    def test_translation_pure_shift(self):
        rng = np.random.default_rng(23)
        x = PointCloud(rng.standard_normal((4, 2)))
        xp = PointCloud(x.data + np.array([0.4, -0.1]))
        group = GroupKind.TRANSLATION
        assert inverse_certificate(group, x, xp, 0.5, FAST_MC, seed=10) == pytest.approx(0.5)

    def test_rotation_identical_distributions(self):
        rng = np.random.default_rng(24)
        x = PointCloud(rng.standard_normal((5, 2)) * 0.2)
        mc = McConfig(n2=100_000, n3=100_000, alpha=0.001)
        pmin = inverse_certificate(SO2, x, x, 0.5, mc, seed=11)
        assert 0.50 <= pmin <= 0.53

    def test_paper_scaling_point(self):
        # |Delta| = 0.73 at sigma = 0.5, |X| = 0.01 needs p of about 0.8
        rng = np.random.default_rng(25)
        x = rng.standard_normal((6, 2))
        x *= 0.01 / np.linalg.norm(x)
        xp = x * (1.0 + 0.73 / 0.01)
        mc = McConfig(n2=100_000, n3=100_000, alpha=0.001)
        pmin = inverse_certificate(SO2, PointCloud(x), PointCloud(xp), 0.5, mc, seed=12)
        width = 3 * math.sqrt(0.8 * 0.2 / mc.n3)
        assert abs(pmin - 0.8) <= 0.02 + width

    def test_monotone_along_scaling_ray(self):
        rng = np.random.default_rng(26)
        x = rng.standard_normal((5, 2))
        x *= 0.01 / np.linalg.norm(x)
        pmins = []
        for nd in (0.2, 0.4, 0.6):
            xp = x * (1.0 + nd / 0.01)
            pmins.append(
                inverse_certificate(SO2, PointCloud(x), PointCloud(xp), 0.5, FAST_MC, seed=13)
            )
        assert all(a <= b + 1e-12 for a, b in zip(pmins, pmins[1:]))

    def test_cloud_and_scalar_paths_agree(self):
        # the point-cloud route and the scalar parameter route build the same
        # reduced problem, so shared seeds give identical p_min
        from invarcert.geometry import epsilon_params

        rng = np.random.default_rng(27)
        x = PointCloud(rng.standard_normal((6, 2)) * 0.2)
        delta = rng.standard_normal((6, 2)) * 0.3
        xp = PointCloud(x.data + delta)
        eps = epsilon_params(x, delta)
        from_clouds = inverse_certify_reduced(
            build_so2_problem(x, xp, 0.5), FAST_MC, seed=14
        )
        from_params = inverse_certify_reduced(
            so2_problem_from_params(eps.norm_x, eps.norm_delta, eps.eps1, eps.eps2, 0.5),
            FAST_MC, seed=14,
        )
        assert from_clouds == from_params


CLOSED_FORM_KINDS = [
    None,
    GroupKind.TRANSLATION,
    GroupKind.ORTHOGONAL,
    GroupKind.PERMUTATION,
    GroupKind.PERMUTATION_ROTO_TRANSLATION,
]


class TestClosedFormsAgree:
    """The closed-form multiclass and inverse certificates of every group use
    the orbit certificate's distance and bound, bit for bit."""

    @pytest.mark.parametrize("dim", [2, 3])
    @pytest.mark.parametrize("kind", CLOSED_FORM_KINDS, ids=lambda k: getattr(k, "value", "None"))
    def test_multiclass_and_inverse_match_orbit(self, kind, dim):
        rng = np.random.default_rng(40 + dim)
        for _ in range(5):
            x, xp = _pair(rng, 6, dim, scale=float(rng.uniform(0.05, 0.6)))
            sigma = float(rng.uniform(0.2, 1.0))
            pa = float(rng.uniform(0.55, 0.999))
            pb = float(rng.uniform(0.0001, 1.0 - pa))
            group = None if kind is None else kind
            multi = certify_multiclass(group, x, xp, pa, pb, sigma, FAST_MC, seed=1)
            if group is None:
                residual = float(np.linalg.norm(xp.data - x.data))
                bound = std_normal_cdf(std_normal_quantile(pa) - residual / sigma)
            else:
                orbit = certify_orbit(group, x, xp, pa, sigma)
                residual, bound = orbit.residual, orbit.bound_value
            assert multi.residual == residual
            assert multi.bound_value == bound
            if kind is GroupKind.TRANSLATION:
                tight = certify_tight(kind, x, xp, pa, sigma, FAST_MC, seed=1)
                assert multi.bound_value == tight.bound_value
            if kind in (None, GroupKind.TRANSLATION):
                upper = std_normal_cdf(std_normal_quantile(pb) + residual / sigma)
                assert f"competitor-upper={upper!r}" in multi.notes
            pmin = inverse_certificate(group, x, xp, sigma, FAST_MC, seed=1)
            assert pmin == std_normal_cdf(residual / sigma)


class TestSharedDraws:
    """An SO or SE multiclass certificate reads the tight certificate's draws:
    its lower stage is certify_tight at the same seed, and its upper bound is
    prob_certify_upper_reduced on the same problem and seed, capped by the
    orbit ceiling.  This extends the translation-only equality of
    TestClosedFormsAgree to the Monte-Carlo groups."""

    MC = McConfig(n2=1000, n3=1000, alpha=0.001)

    @pytest.mark.parametrize("dim", [2, 3])
    @pytest.mark.parametrize("kind", [GroupKind.ROTATION, GroupKind.ROTO_TRANSLATION],
                             ids=["SO", "SE"])
    def test_multiclass_reads_tight_draws(self, kind, dim):
        rng = np.random.default_rng(60 + dim)
        for seed in (3, 4):
            x, xp = _pair(rng, 6, dim, scale=0.1)
            sigma, pa, pb = 0.5, 0.9, 0.05
            tight = certify_tight(kind, x, xp, pa, sigma, self.MC, seed)
            multi = certify_multiclass(kind, x, xp, pa, pb, sigma, self.MC, seed)
            assert multi.bound_value == tight.bound_value
            assert multi.kappa_log == tight.kappa_log
            ceiling = shift_bound(pb, -project(kind, x, xp).residual, sigma)
            if kind is GroupKind.ROTO_TRANSLATION:
                x, xp = center(x), center(xp)
            build = build_so2_problem if dim == 2 else build_so3_problem
            upper = min(
                prob_certify_upper_reduced(build(x, xp, sigma), self.MC, seed, p_upper=pb),
                ceiling,
            )
            assert multi.notes[-1] == f"competitor-upper={upper!r}"
            assert multi.certified == (tight.bound_value > upper)
            assert multi.method == f"multiclass-tight-{kind.value}{dim}"

    @pytest.mark.parametrize("kind", [GroupKind.ROTATION, GroupKind.ROTO_TRANSLATION],
                             ids=["SO", "SE"])
    def test_one_call_returns_both(self, kind):
        x, xp = _pair(np.random.default_rng(64), 5, 2)
        tight = certify_tight(kind, x, xp, 0.9, 0.5, self.MC, 5)
        multi = certify_multiclass(kind, x, xp, 0.9, 0.05, 0.5, self.MC, 5)
        assert certify_tight_and_multiclass(kind, x, xp, 0.9, 0.5, self.MC, 5) == (tight, None)
        assert certify_tight_and_multiclass(
            kind, x, xp, 0.9, 0.5, self.MC, 5, p_upper=0.05
        ) == (tight, multi)
        refused = certify_tight_and_multiclass(kind, x, xp, 0.3, 0.5, self.MC, 5, p_upper=0.4)
        assert refused == (certify_tight(kind, x, xp, 0.3, 0.5, self.MC, 5),
                           certify_multiclass(kind, x, xp, 0.3, 0.4, 0.5, self.MC, 5))
        assert "pa-not-above-pb" in refused[1].notes

    def test_clamped_pa_reported_once(self):
        x, xp = _pair(np.random.default_rng(65), 5, 2, scale=0.05)
        tight, multi = certify_tight_and_multiclass(SO2, x, xp, 1.0, 0.5, self.MC, 6, p_upper=0.0)
        # at the clamped p = 1 - 1e-12 the orbit floor lies within 1e-9 of p
        assert tight.notes == ("p-lower-supplied", "p-lower-clamped", "orbit-floor", "mc-skipped")
        assert multi.notes[:4] == ("p-lower-supplied", "orbit-floor", "mc-skipped", "p-clamped")
        assert multi.bound_value == tight.bound_value

    def test_problem_draws_once_per_seed(self):
        x, xp = _pair(np.random.default_rng(66), 5, 2)
        rows = []
        statistic = rho_so2()

        def counting(q):
            rows.append(q.shape[0])
            return statistic(q)

        problem = dataclasses.replace(
            build_so2_problem(x, xp, 0.5), statistic=LikelihoodStatistic(4, counting)
        )
        mc = McConfig(n2=300, n3=200, alpha=0.001)
        for seed in (7, 8):
            lower = prob_certify_reduced(problem, mc, seed, p_lower=0.9)
            upper = prob_certify_upper_reduced(problem, mc, seed, p_upper=0.05)
            again = prob_certify_reduced(problem, mc, seed, p_lower=0.8)
            # a fresh problem draws the same values
            fresh = build_so2_problem(x, xp, 0.5)
            assert upper == prob_certify_upper_reduced(fresh, mc, seed, p_upper=0.05)
            assert lower == prob_certify_reduced(fresh, mc, seed, p_lower=0.9)
            assert again == prob_certify_reduced(fresh, mc, seed, p_lower=0.8)
        assert rows == [300, 200, 300, 200]
        # a statistic without a bracket has every kept row known after the
        # cuts (lo is hi), with its values read-only and its draws dropped
        for pair in problem.statistic_samples.values():
            assert all(s.lo is s.hi and s.draws is None for s in pair)
            assert not any(s.lo.flags.writeable for s in pair)
        # the inverse reads children 0-1 of the same seed rule and keeps its
        # pair too: a second call draws nothing
        p_min = inverse_certify_reduced(problem, mc, 7)
        assert rows[4:] == [300, 200]
        assert inverse_certify_reduced(problem, mc, 7) == p_min
        assert rows[4:] == [300, 200]
        # only the latest pair is kept, read-only
        (kept,) = problem.statistic_samples.values()
        assert not any(s.lo.flags.writeable for s in kept)
        # perturbed threshold sample from child 0, clean count from child 1
        perturbed, clean = (np.random.default_rng(s) for s in np.random.SeedSequence(7).spawn(2))
        threshold = np.sort(statistic(sample_gaussian(problem.mean_perturbed, 300, perturbed,
                                                      problem.factor)))
        counted = statistic(sample_gaussian(problem.mean_clean, 200, clean, problem.factor))
        assert threshold.tobytes() == np.sort(kept[0].lo).tobytes()
        assert counted.tobytes() == kept[1].lo.tobytes()
        n_star = upper_quantile_index(300, 0.5, mc.alpha)
        _, count = sorted_cut(threshold, counted, n_star, below=True)
        assert p_min == max(clopper_pearson_upper(count, 200, 1.0 - mc.alpha / 2.0), 0.5)


class TestMulticlassValidation:
    """certify_multiclass checks sigma, shapes and group before it reports
    pa-not-above-pb."""

    @pytest.mark.parametrize(
        "group, xp_points, sigma, match",
        [
            (GroupKind.ROTATION, 6, -1.0, "sigma must be finite and > 0"),
            (GroupKind.ROTATION, 5, 0.5, "different shapes"),
            ("SO", 6, 0.5, "unsupported group 'SO'"),
        ],
        ids=["sigma", "shapes", "group-string"],
    )
    def test_rejected_when_pa_not_above_pb(self, group, xp_points, sigma, match):
        rng = np.random.default_rng(34)
        x = PointCloud(rng.standard_normal((6, 2)))
        xp = PointCloud(rng.standard_normal((xp_points, 2)))
        with pytest.raises(ValueError, match=match):
            certify_multiclass(group, x, xp, 0.3, 0.4, sigma, FAST_MC, seed=1)


class TestPminGrid:
    def test_blackbox_constant(self):
        grid = pmin_grid(None, 1.0, 0.5, 0.5, 6, FAST_MC, seed=1)
        expected = std_normal_cdf(1.0)
        feasible = ~grid.infeasible
        assert np.allclose(grid.values[feasible], expected)

    def test_feasibility_mask_is_unit_disc(self):
        grid = pmin_grid(None, 1.0, 0.5, 0.5, 12, FAST_MC, seed=2)
        nodes = grid.nodes
        for i in range(12):
            for j in range(12):
                outside = math.hypot(nodes[j], nodes[i]) > 1.0 + 1e-12
                assert grid.infeasible[i, j] == outside

    def test_coarse_grid_subsamples_fine(self):
        mc = McConfig(n2=100, n3=100, alpha=0.01)
        coarse = pmin_grid(SO2, 0.5, 0.3, 0.5, 4, mc, seed=3)
        fine = pmin_grid(SO2, 0.5, 0.3, 0.5, 10, mc, seed=3)
        # nodes 0, 1/3, 2/3, 1 appear at indices 0, 3, 6, 9 of the fine grid
        for ic, fi in enumerate((0, 3, 6, 9)):
            for jc, fj in enumerate((0, 3, 6, 9)):
                if coarse.infeasible[ic, jc]:
                    assert fine.infeasible[fi, fj]
                    continue
                assert coarse.values[ic, jc] == fine.values[fi, fj]

    def test_nodes_are_the_reduced_fractions(self):
        # k / (res - 1) and the reduced fraction are correctly rounded
        # quotients of one rational, so a node keeps its bits in every grid
        for res in range(2, 257):
            fractions = np.array([float(Fraction(k, res - 1)) for k in range(res)])
            assert (np.arange(res) / (res - 1)).tobytes() == fractions.tobytes(), res
            if res in (2, 3, 4, 7, 10, 33):
                grid = pmin_grid(None, 1.0, 0.5, 0.5, res, FAST_MC, seed=1)
                assert grid.nodes.tobytes() == fractions.tobytes(), res

    def test_cells_read_the_inverse_procedure_at_the_grid_seed(self):
        mc = McConfig(n2=300, n3=200, alpha=0.01)
        nx, nd, sigma = 0.5, 0.3, 0.4
        grid = pmin_grid(SO2, nx, nd, sigma, 5, mc, seed=6)
        scale = nx * nd
        for i, e2 in enumerate(grid.nodes):
            for j, e1 in enumerate(grid.nodes):
                if grid.infeasible[i, j]:
                    continue
                alone = so2_problem_from_params(nx, nd, e1 * scale, e2 * scale, sigma)
                assert grid.values[i, j] == inverse_certify_reduced(alone, mc, 6)

    def _count_draws(self, monkeypatch):
        """Record every sample_gaussian call of the engine and every
        standard-normal draw of a generator it makes."""
        sampled, drawn = [], []
        real_rng, real_sample = np.random.default_rng, mc_engine.sample_gaussian

        class CountingGenerator:
            def __init__(self, seed):
                self.rng = real_rng(seed)

            def standard_normal(self, shape):
                drawn.append(shape)
                return self.rng.standard_normal(shape)

        def counting_sample(mean, count, rng, factor):
            sampled.append(count)
            return real_sample(mean, count, rng.rng, factor)

        monkeypatch.setattr(np.random, "default_rng", CountingGenerator)
        monkeypatch.setattr(mc_engine, "sample_gaussian", counting_sample)
        return sampled, drawn

    def test_grid_draws_once_per_child(self, monkeypatch):
        sampled, drawn = self._count_draws(monkeypatch)
        grid = pmin_grid(SO2, 0.5, 0.3, 0.5, 4, McConfig(n2=300, n3=200, alpha=0.01), seed=3)
        assert np.count_nonzero(~grid.infeasible) > 2
        assert (sampled, drawn) == ([], [(300, 4), (200, 4)])

    def test_lone_problem_draws_through_sample_gaussian(self, monkeypatch):
        sampled, drawn = self._count_draws(monkeypatch)
        problem = so2_problem_from_params(0.5, 0.3, 0.05, 0.02, 0.5)
        inverse_certify_reduced(problem, McConfig(n2=300, n3=200, alpha=0.01), 3)
        assert (sampled, drawn) == ([300, 200], [])

    def test_blackbox_grid_draws_nothing(self, monkeypatch):
        sampled, drawn = self._count_draws(monkeypatch)
        pmin_grid(None, 0.5, 0.3, 0.5, 4, McConfig(n2=300, n3=200, alpha=0.01), seed=3)
        assert (sampled, drawn) == ([], [])

    def test_loci_normalization(self):
        grid = pmin_grid(None, 1.0, math.sqrt(2.0), 0.5, 4, FAST_MC, seed=4)
        normalized = sorted(
            (l.eps1_normalized, l.eps2_normalized) for l in grid.loci
        )
        assert normalized[0][0] == pytest.approx(-math.sqrt(0.5), rel=1e-12)
        assert normalized[0][1] == pytest.approx(-math.sqrt(0.5), rel=1e-12)
        assert normalized[1][1] == pytest.approx(math.sqrt(0.5), rel=1e-12)

    def test_gain_concentrates_near_locus_for_large_data_norm(self):
        # |X| = 10 sigma: the tight certificate only beats the black-box one
        # near the adversarial rotations
        mc = McConfig(n2=2000, n3=2000, alpha=0.01)
        sigma, nx, nd = 0.5, 5.0, 0.5
        grid = pmin_grid(SO2, nx, nd, sigma, 21, mc, seed=5)
        gain = std_normal_cdf(nd / sigma) - grid.values
        gain[grid.infeasible] = -np.inf
        i, j = np.unravel_index(np.argmax(gain), gain.shape)
        e1, e2 = grid.nodes[j], grid.nodes[i]
        dist = min(
            math.hypot(e1 - l.eps1_normalized, e2 - abs(l.eps2_normalized))
            for l in grid.loci
        )
        assert dist <= 0.15

    def test_validation(self):
        with pytest.raises(ValueError):
            pmin_grid(None, -1.0, 0.5, 0.5, 5, FAST_MC, seed=1)
        with pytest.raises(ValueError):
            pmin_grid(None, 1.0, 0.5, 0.5, 1, FAST_MC, seed=1)
        with pytest.raises(ValueError):
            pmin_grid(GroupKind.TRANSLATION, 1.0, 0.5, 0.5, 5, FAST_MC, seed=1)


class TestProblemStatistic:
    """Each reduced problem carries the statistic of its dimension."""

    def test_builders_attach_their_statistic(self):
        x, xp = _pair(np.random.default_rng(35), 5, 2)
        x3, xp3 = _pair(np.random.default_rng(36), 5, 3)
        problems = [
            build_so2_problem(x, xp, 0.5),
            so2_problem_from_params(1.0, 0.5, 0.1, 0.2, 0.5),
            build_so3_problem(x3, xp3, 0.5),
        ]
        for problem, dim in zip(problems, (4, 4, 18)):
            assert problem.statistic.dim == problem.mean_clean.size == dim
        q = np.random.default_rng(37).standard_normal((3, 4))
        assert np.array_equal(problems[0].statistic(q), rho_so2()(q))


class TestReducedHelpers:
    def test_blackbox_problem_statistic(self):
        problem = blackbox_reduced_problem(0.5, 0.5)
        assert problem.mean_perturbed[0] == pytest.approx(1.0)
        stat = linear_statistic()
        assert np.array_equal(stat(np.array([[2.5]])), [2.5])


class TestShapeMismatch:
    """Clouds with different point counts are rejected, not broadcast."""

    @pytest.mark.parametrize(
        "call",
        [
            lambda x, xp: certify_multiclass(None, x, xp, 0.8, 0.1, 0.5, FAST_MC, seed=1),
            lambda x, xp: inverse_certificate(None, x, xp, 0.5, FAST_MC, seed=1),
            lambda x, xp: certify_tight(SO2, x, xp, 0.8, 0.5, FAST_MC, seed=1),
            lambda x, xp: certify_tight(SE2, x, xp, 0.8, 0.5, FAST_MC, seed=1),
            lambda x, xp: inverse_certificate(SO2, x, xp, 0.5, FAST_MC, seed=1),
            lambda x, xp: inverse_certificate(SE2, x, xp, 0.5, FAST_MC, seed=1),
        ],
        ids=["multiclass-blackbox", "inverse-blackbox", "tight-SO2", "tight-SE2",
             "inverse-SO2", "inverse-SE2"],
    )
    def test_different_shapes_rejected(self, call):
        rng = np.random.default_rng(31)
        x = PointCloud(rng.standard_normal((4, 2)))
        xp = PointCloud(rng.standard_normal((1, 2)))
        with pytest.raises(ValueError, match="different shapes"):
            call(x, xp)


T2 = GroupKind.TRANSLATION


class TestSigmaDomain:
    """Every library entry point rejects sigma outside 0 < sigma < inf, as the
    CLI does, instead of returning a certificate for it."""

    @pytest.mark.parametrize("sigma", [-1.0, 0.0, math.nan, math.inf])
    @pytest.mark.parametrize(
        "dim, call",
        [
            pytest.param(2, lambda x, xp, s: pmin_grid(None, 1.0, 0.5, s, 3, FAST_MC, seed=1),
                         id="pmin-blackbox"),
            pytest.param(2, lambda x, xp, s: pmin_grid(SO2, 1.0, 0.5, s, 3, FAST_MC, seed=1),
                         id="pmin-SO2"),
            pytest.param(2, lambda x, xp, s: inverse_certificate(None, x, xp, s, FAST_MC, seed=1),
                         id="inverse-blackbox"),
            pytest.param(2, lambda x, xp, s: inverse_certificate(T2, x, xp, s, FAST_MC, seed=1),
                         id="inverse-T"),
            pytest.param(2, lambda x, xp, s: inverse_certificate(SO2, x, xp, s, FAST_MC, seed=1),
                         id="inverse-SO2"),
            pytest.param(3, lambda x, xp, s: certify_tight(
                SO3, x, xp, 0.8, s, FAST_MC, seed=1), id="tight-SO3"),
            pytest.param(2, lambda x, xp, s: certify_tight(
                SE2, x, xp, 0.8, s, FAST_MC, seed=1), id="tight-SE2"),
            pytest.param(2, lambda x, xp, s: certify_multiclass(
                T2, x, xp, 0.9, 0.05, s, FAST_MC, seed=1), id="multiclass-T"),
            pytest.param(2, lambda x, xp, s: certify_multiclass(
                SO2, x, xp, 0.9, 0.05, s, FAST_MC, seed=1), id="multiclass-SO2"),
            pytest.param(2, lambda x, xp, s: certify_tight(T2, x, xp, 0.8, s, FAST_MC, seed=1),
                         id="tight-translation"),
            pytest.param(2, lambda x, xp, s: certify_orbit(SO2, x, xp, 0.8, s),
                         id="orbit-SO2"),
        ],
    )
    def test_rejected(self, dim, call, sigma):
        x, xp = _pair(np.random.default_rng(32), 6, dim)
        with pytest.raises(ValueError, match="sigma must be finite and > 0"):
            call(x, xp, sigma)


class TestProbabilityDomain:
    """Every certificate entry point rejects a probability outside [0, 1],
    NaN included, instead of clamping it into a certificate."""

    @pytest.mark.parametrize("p", [-0.1, 1.1, 5.0, math.nan])
    @pytest.mark.parametrize(
        "call",
        [
            pytest.param(lambda x, xp, p: certify_orbit(SO2, x, xp, p, 0.5), id="orbit"),
            pytest.param(lambda x, xp, p: certify_tight(
                GroupKind.TRANSLATION, x, xp, p, 0.5, FAST_MC, seed=1), id="tight-T"),
            pytest.param(lambda x, xp, p: certify_tight(
                SO2, x, xp, p, 0.5, FAST_MC, seed=1), id="tight-SO2"),
            pytest.param(lambda x, xp, p: certify_multiclass(
                None, x, xp, p, 0.1, 0.5, FAST_MC, seed=1), id="multiclass-pa"),
            pytest.param(lambda x, xp, p: certify_multiclass(
                None, x, xp, 0.9, p, 0.5, FAST_MC, seed=1), id="multiclass-pb"),
            pytest.param(lambda x, xp, p: prob_certify_reduced(
                build_so2_problem(x, xp, 0.5), FAST_MC, 1, p_lower=p),
                id="reduced-lower"),
            pytest.param(lambda x, xp, p: prob_certify_upper_reduced(
                build_so2_problem(x, xp, 0.5), FAST_MC, 1, p_upper=p),
                id="reduced-upper"),
        ],
    )
    def test_rejected(self, call, p):
        x = PointCloud(np.random.default_rng(33).standard_normal((5, 2)))
        with pytest.raises(ValueError, match="probability must lie in"):
            call(x, PointCloud(1.1 * x.data), p)


class TestSharedFactor:
    """A reduced problem carries one covariance factor, shared by both means;
    in 2-D it is the closed-form block Cholesky factor, built once."""

    def test_multiclass_rotation_factors_once(self, monkeypatch):
        calls = []
        build = tight.so2_problem_from_params

        def counting_build(*args, **kwargs):
            calls.append(args)
            return build(*args, **kwargs)

        monkeypatch.setattr(tight, "so2_problem_from_params", counting_build)
        x, xp = _pair(np.random.default_rng(40), 5, 2)
        out = certify_multiclass(SO2, x, xp, 0.8, 0.1, 0.5, FAST_MC, seed=2)
        assert out.method == "multiclass-tight-SO2"
        assert len(calls) == 1

    @pytest.mark.parametrize("dim", [2, 3])
    def test_samples_match_eigh_formula_bitwise(self, dim):
        # every draw is mean + normals @ F^T, with one normal a row per
        # column of F; in 2-D, F is the closed form of the parameters
        x, xp = _pair(np.random.default_rng(41), 5, dim)
        problem = (build_so2_problem if dim == 2 else build_so3_problem)(x, xp, 0.5)
        factor = problem.factor
        if dim == 2:
            eps = epsilon_params(x, xp.data - x.data)
            h = math.hypot(eps.eps1, eps.eps2) / eps.norm_x
            r = eps.norm_x / 0.5
            u = (eps.norm_x + eps.eps1 / eps.norm_x) / 0.5
            v = eps.eps2 / eps.norm_x / 0.5
            s = math.sqrt((eps.norm_delta - h) * (eps.norm_delta + h)) / 0.5
            expected = np.array(
                [[u, v, s, 0.0], [-v, u, 0.0, s], [r, 0.0, 0.0, 0.0], [0.0, r, 0.0, 0.0]]
            )
            assert factor.tobytes() == expected.tobytes()
        for mean in (problem.mean_clean, problem.mean_perturbed):
            normals = np.random.default_rng(5).standard_normal((1000, factor.shape[1]))
            expected = mean + normals @ factor.T
            got = sample_gaussian(mean, 1000, np.random.default_rng(5), factor)
            assert got.tobytes() == expected.tobytes()

    def test_non_finite_factor_is_refused(self):
        statistic = LikelihoodStatistic(dim=2, evaluator=lambda q: q[:, 0])
        message = re.escape("reduced problem at sigma=0.5: an entry is not finite")
        for bad in (np.inf, -np.inf, np.nan):
            factor = np.eye(2)
            factor[0, 1] = bad
            with pytest.raises(NumericalFailure, match=message):
                RotationCertProblem(np.zeros(2), np.zeros(2), factor, 0.5, statistic)
            with pytest.raises(NumericalFailure, match=message):
                RotationCertProblem(np.zeros(2), factor[0], np.eye(2), 0.5, statistic)


class TestExtremeSigma:
    """A reduced problem whose entries or factor overflow, or whose statistic
    cannot be evaluated, raises NumericalFailure naming the scale.

    2-D: the pair below certifies from sigma 2.7e-154 up (bound 0 at the
    small end); below it |X'|^2 / sigma^2 overflows in the perturbed mean.
    pmin_grid's cells below, with |X'|^2 up to 2.25, overflow from 1.1e-154
    down.

    3-D: clouds certify from 1e-104 up (bound 0 there; from 1e150 the orbit
    floor lies within 1e-9 of p).  From 1e-106 down to 3e-154 the matrix
    Fisher integral loses its accuracy, then underflows, so its error
    estimate is refused; further down the singular values or the means
    overflow."""

    MC = McConfig(n2=100, n3=100, alpha=0.01)

    # at 1e-60 and 1e-75 the 3-D cross matrices reach 1e120-1e150, where det
    # overflows; under the suite's error::RuntimeWarning any warning fails
    @pytest.mark.parametrize(
        "sigma",
        [1e-300, 1e-170, 1e-160, 1e-154, 1.1e-154, 3e-154, 3.6e-154, 1e-150, 1e-100, 1e-75,
         1e-60, 1e160, 1e300],
    )
    @pytest.mark.parametrize("dim", [2, 3])
    @pytest.mark.parametrize("kind", [GroupKind.ROTATION, GroupKind.ROTO_TRANSLATION],
                             ids=["SO", "SE"])
    def test_certifies_or_fails_numerically(self, kind, dim, sigma):
        x, xp = _pair(np.random.default_rng(33), 6, dim)
        if sigma < (1e-105 if dim == 3 else 2.7e-154):
            message = re.escape(f"reduced problem at sigma={sigma!r}")
            with pytest.raises(NumericalFailure, match=message):
                certify_tight(kind, x, xp, 0.9, sigma, self.MC, seed=1)
        else:
            out = certify_tight(kind, x, xp, 0.9, sigma, self.MC, seed=1)
            assert 0.0 <= out.bound_value <= 1.0

    @pytest.mark.parametrize("sigma", [1e-300, 1e-170, 1e-160, 1e-154, 1.1e-154])
    def test_pmin_grid_so2(self, sigma):
        with pytest.raises(NumericalFailure, match=f"reduced problem at sigma={sigma!r}"):
            pmin_grid(SO2, 1.0, 0.5, sigma, 3, self.MC, seed=1)


class TestLargeScaleInputs:
    """Pure rotations and scalings lie on the bound |(eps1, eps2)| <= |X||Delta|,
    and rounding can put them above it by an amount growing with |X||Delta|.
    The seeds below do so at every scale."""

    @pytest.mark.parametrize("norm_x,seed", [(1e4, 0), (1e5, 30), (1e6, 26)])
    def test_rotation_and_scaling_accepted(self, norm_x, seed):
        rng = np.random.default_rng(seed)
        x = rng.standard_normal((5, 2))
        x *= norm_x / np.linalg.norm(x)
        for xp in (x @ rot2(0.7).T, 1.5 * x):
            eps = epsilon_params(PointCloud(x), xp - x)
            assert math.hypot(eps.eps1, eps.eps2) == pytest.approx(
                eps.norm_x * eps.norm_delta, rel=1e-12
            )
            for group in (SO2, SE2):
                out = certify_tight(
                    group, PointCloud(x), PointCloud(xp), 0.9, norm_x, FAST_MC, seed=1
                )
                assert out.method == f"tight-{group.value}2"
                assert 0.0 <= out.bound_value <= 1.0

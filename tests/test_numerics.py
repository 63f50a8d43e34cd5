"""Special functions, Gaussian sampling and binomial machinery.

Expected values marked "oracle:" were computed with the named independent
reference (mpmath erf/bessel at 40 digits, exact-fraction binomial tails,
bisection on the exact binomial-tail form of the regularized incomplete
beta) and frozen here.
"""

import math

import mpmath
import numpy as np
import pytest

from invarcert.numerics import (
    binomial_log_cdf_all,
    clamp_probability,
    clopper_pearson_lower,
    clopper_pearson_upper,
    log_bessel_i0,
    sample_gaussian,
    std_normal_cdf,
    std_normal_quantile,
)

# oracle: 0.5*erfc(-x/sqrt(2)) at 40 digits
PHI_AT_08416 = 0.7999999999795868
PHI_AT_NEG8 = 6.220960574271784e-16
# oracle: bisection on the erf form of Phi
QUANTILE_08 = 0.8416212335729142
QUANTILE_0975 = 1.9599639845400542
# oracle: power series sum (x/2)^(2k)/(k!)^2 at 40 digits
LOG_I0_AT_1 = 0.23591435850717865
# oracle: asymptotic expansion with first two correction terms
LOG_I0_AT_1000 = 995.6273088897961
# oracle: bisection on the exact binomial-tail identity for I_x(8000, 2001)
BETA_8000_2001_AT_0001 = 0.7873893959712722


class TestStdNormal:
    def test_cdf_at_zero(self):
        assert std_normal_cdf(0.0) == 0.5

    def test_cdf_oracle_values(self):
        assert abs(std_normal_cdf(0.8416212335) - 0.8) < 1e-9
        assert std_normal_cdf(0.8416212335) == pytest.approx(PHI_AT_08416, abs=1e-15)
        assert std_normal_cdf(-8.0) <= 1e-14
        assert std_normal_cdf(-8.0) == pytest.approx(PHI_AT_NEG8, rel=1e-12)

    def test_cdf_symmetry(self):
        xs = np.linspace(-6.0, 6.0, 201)
        assert np.max(np.abs(std_normal_cdf(xs) + std_normal_cdf(-xs) - 1.0)) < 1e-14

    def test_cdf_monotone(self):
        xs = np.linspace(-10.0, 10.0, 500)
        assert np.all(np.diff(std_normal_cdf(xs)) >= 0.0)

    def test_cdf_rejects_nonfinite(self):
        for bad in (math.nan, math.inf, -math.inf):
            with pytest.raises(ValueError):
                std_normal_cdf(bad)

    def test_quantile_at_half(self):
        assert std_normal_quantile(0.5) == 0.0

    def test_quantile_oracle_values(self):
        assert std_normal_quantile(0.8) == pytest.approx(QUANTILE_08, abs=1e-8)
        assert std_normal_quantile(0.975) == pytest.approx(QUANTILE_0975, abs=1e-8)

    def test_quantile_roundtrip(self):
        ps = np.linspace(0.0011, 0.9989, 311)
        assert np.max(np.abs(std_normal_cdf(std_normal_quantile(ps)) - ps)) < 1e-10

    @pytest.mark.parametrize("p", [0.0, 1.0, -0.2, 1.4, math.nan, [0.5, math.nan]])
    def test_quantile_domain(self, p):
        with pytest.raises(ValueError):
            std_normal_quantile(p)

    @pytest.mark.parametrize("p", [-0.1, 1.1, 5.0, math.nan, -math.inf, math.inf])
    def test_clamp_rejects_non_probability(self, p):
        with pytest.raises(ValueError, match="probability must lie in"):
            clamp_probability(p)


class TestLogBesselI0:
    def test_at_zero(self):
        assert log_bessel_i0(0.0) == 0.0

    def test_series_oracle(self):
        assert log_bessel_i0(1.0) == pytest.approx(LOG_I0_AT_1, abs=1e-10)

    def test_asymptotic_oracle(self):
        value = log_bessel_i0(1000.0)
        leading = 1000.0 - 0.5 * math.log(2.0 * math.pi * 1000.0)
        assert value == pytest.approx(leading, rel=1e-3)
        assert value == pytest.approx(LOG_I0_AT_1000, rel=1e-12)

    def test_against_mpmath_small_range(self):
        # mpmath besseli is an independent evaluation path
        xs = np.linspace(0.0, 30.0, 16)
        ours = log_bessel_i0(xs)
        for x, v in zip(xs, ours):
            ref = float(mpmath.log(mpmath.besseli(0, mpmath.mpf(x))))
            assert abs(v - ref) <= 1e-12 * max(1.0, abs(ref))

    def test_against_asymptotic_oracle_large_range(self):
        for x in (700.0, 5e3, 1e5, 1e6):
            ref = x - 0.5 * math.log(2 * math.pi * x) + math.log(
                1.0 + 1.0 / (8 * x) + 9.0 / (128 * x * x)
            )
            assert log_bessel_i0(x) == pytest.approx(ref, rel=1e-6)

    def test_against_mpmath_full_range(self):
        xs = np.concatenate([np.linspace(0.0, 60.0, 121), np.geomspace(60.0, 1e5, 60)])
        ours = log_bessel_i0(xs)
        with mpmath.workdps(30):
            for x, v in zip(xs, ours):
                ref = float(mpmath.log(mpmath.besseli(0, mpmath.mpf(float(x)))))
                assert abs(v - ref) <= 1e-13 * max(1.0, abs(ref))

    def test_no_overflow_far_out(self):
        v = log_bessel_i0(1e12)
        assert math.isfinite(v)
        assert v == pytest.approx(1e12 - 0.5 * math.log(2 * math.pi * 1e12), rel=1e-9)

    def test_monotone(self):
        xs = np.linspace(0.0, 200.0, 400)
        assert np.all(np.diff(log_bessel_i0(xs)) > 0.0)

    def test_rejects_negative(self):
        with pytest.raises(ValueError):
            log_bessel_i0(-0.1)


class TestSampleGaussian:
    def test_zero_covariance_is_degenerate(self):
        mean = np.array([1.0, -2.0, 3.0])
        samples = sample_gaussian(mean, 50, np.random.default_rng(1), np.zeros((3, 3)))
        assert np.all(samples == mean)

    def test_moments_identity_covariance(self):
        mean = np.array([0.5, -1.5, 2.0, 0.0])
        samples = sample_gaussian(mean, 1_000_000, np.random.default_rng(2), np.eye(4))
        assert np.max(np.abs(samples.mean(axis=0) - mean)) < 5e-3
        cov = np.cov(samples.T)
        assert np.max(np.abs(cov - np.eye(4))) < 1e-2

    def test_rank_deficient_support(self):
        # Delta = 0 rotation-certificate covariance: rank 2 out of 4
        nx2 = 0.7
        cov = np.array(
            [
                [nx2, 0.0, nx2, 0.0],
                [0.0, nx2, 0.0, nx2],
                [nx2, 0.0, nx2, 0.0],
                [0.0, nx2, 0.0, nx2],
            ]
        )
        mean = np.array([nx2, 0.0, nx2, 0.0])
        factor = np.sqrt(nx2) * np.vstack([np.eye(2), np.eye(2)])
        assert np.allclose(factor @ factor.T, cov, rtol=0.0, atol=1e-15)
        samples = sample_gaussian(mean, 2000, np.random.default_rng(3), factor)
        eigvals, eigvecs = np.linalg.eigh(cov)
        null = eigvecs[:, eigvals < 1e-12]
        assert np.max(np.abs((samples - mean) @ null)) < 1e-8

    def test_reproducible(self):
        factor = np.eye(4)
        a = sample_gaussian(np.zeros(4), 100, np.random.default_rng(42), factor)
        b = sample_gaussian(np.zeros(4), 100, np.random.default_rng(42), factor)
        assert np.array_equal(a, b)

    @pytest.mark.parametrize("dim", [4, 18])
    def test_in_place_mean_matches_sum_bitwise(self, dim):
        # adding the mean into the product does the same IEEE additions as
        # mean + normals @ factor.T, without its second n x d array
        rng = np.random.default_rng(dim)
        factor = rng.standard_normal((dim, dim))
        mean = 1e3 * rng.standard_normal(dim)
        normals = np.random.default_rng(7).standard_normal((5000, dim))
        got = sample_gaussian(mean, 5000, np.random.default_rng(7), factor)
        assert got.tobytes() == (mean + normals @ factor.T).tobytes()

    def test_narrow_factor_draws_one_normal_per_column(self):
        # a dim x k factor reads k normals a row; k = 0 draws the mean
        rng = np.random.default_rng(12)
        factor = rng.standard_normal((5, 2))
        mean = rng.standard_normal(5)
        normals = np.random.default_rng(3).standard_normal((100, 2))
        got = sample_gaussian(mean, 100, np.random.default_rng(3), factor)
        assert got.tobytes() == (mean + normals @ factor.T).tobytes()
        empty = sample_gaussian(mean, 4, np.random.default_rng(3), np.zeros((5, 0)))
        assert np.array_equal(empty, np.tile(mean, (4, 1)))

    def test_dimension_mismatch(self):
        with pytest.raises(ValueError):
            sample_gaussian(np.zeros(3), 10, np.random.default_rng(0), np.eye(4))
        with pytest.raises(ValueError):
            sample_gaussian(np.zeros(3), 10, np.random.default_rng(0), np.ones(3))

    @pytest.mark.parametrize("count", [0, -1])
    def test_rejects_count_below_one(self, count):
        with pytest.raises(ValueError, match="count must be >= 1"):
            sample_gaussian(np.zeros(2), count, np.random.default_rng(0), np.eye(2))


class TestClopperPearson:
    def test_zero_successes(self):
        assert clopper_pearson_lower(0, 100, 0.99) == 0.0

    def test_all_successes_closed_form(self):
        # Beta(n, 1) quantile at 1 - c is (1 - c)^(1/n)
        for n, c in ((10, 0.9), (500, 0.99), (37, 0.999)):
            expected = (1.0 - c) ** (1.0 / n)
            assert clopper_pearson_lower(n, n, c) == pytest.approx(
                expected, rel=1e-12
            )

    def test_beta_quantile_oracle(self):
        got = clopper_pearson_lower(8000, 10000, 0.999)
        assert got == pytest.approx(BETA_8000_2001_AT_0001, abs=1e-9)

    def test_upper_all_successes(self):
        assert clopper_pearson_upper(100, 100, 0.97) == 1.0

    def test_upper_zero_successes_closed_form(self):
        for n, c in ((10, 0.9), (250, 0.995)):
            expected = 1.0 - (1.0 - c) ** (1.0 / n)
            assert clopper_pearson_upper(0, n, c) == pytest.approx(
                expected, rel=1e-12
            )

    def test_reflection_identity(self):
        rng = np.random.default_rng(5)
        for _ in range(50):
            n = int(rng.integers(1, 400))
            k = int(rng.integers(0, n + 1))
            c = float(rng.uniform(0.5, 0.9999))
            upper = clopper_pearson_upper(k, n, c)
            lower = clopper_pearson_lower(n - k, n, c)
            assert upper == pytest.approx(1.0 - lower, abs=1e-12)

    def test_lower_below_empirical(self):
        rng = np.random.default_rng(6)
        for _ in range(50):
            n = int(rng.integers(1, 1000))
            k = int(rng.integers(0, n + 1))
            bound = clopper_pearson_lower(k, n, 0.99)
            assert bound <= k / n + 1e-12

    def test_coverage_simulation(self):
        # true p = 0.7, n = 500, confidence 0.99: expect about 1% violations
        rng = np.random.default_rng(7)
        draws = rng.binomial(500, 0.7, size=10_000)
        violations = sum(
            clopper_pearson_lower(int(k), 500, 0.99) > 0.7
            for k in draws
        )
        assert violations <= 150  # 1.5% of 10000

    # The Monte-Carlo count stops once a bound on the count settles the
    # comparison with the orbit floor or ceiling, which is sound only if both
    # bounds never decrease as the successes grow.  Confidences 1 - alpha/3
    # (the count) and 1 - alpha/2 (the inverse procedure) at alpha = 1e-3.
    CONFIDENCES = (1.0 - 1e-3 / 3.0, 1.0 - 1e-3 / 2.0)

    @staticmethod
    def _assert_monotone(n, ks, confidence):
        for bound in (clopper_pearson_lower, clopper_pearson_upper):
            values = np.array([bound(int(k), n, confidence) for k in ks])
            assert np.all(np.diff(values) >= 0.0), (bound.__name__, n, confidence)

    @pytest.mark.parametrize("confidence", CONFIDENCES)
    def test_monotone_in_successes_every_k(self, confidence):
        for n in range(1, 1001):
            self._assert_monotone(n, range(n + 1), confidence)

    @pytest.mark.parametrize("confidence", CONFIDENCES)
    @pytest.mark.parametrize("n", [10_000, 100_000])
    def test_monotone_in_successes_sampled_k(self, n, confidence):
        # each sampled k next to k + 1, both ends, and the sample in order
        rng = np.random.default_rng(n)
        ks = np.unique(np.concatenate([rng.integers(0, n, 400), [0, n - 1]]))
        self._assert_monotone(n, np.sort(np.concatenate([ks, ks + 1])), confidence)

    def test_request_validation(self):
        for bound in (clopper_pearson_lower, clopper_pearson_upper):
            with pytest.raises(ValueError):
                bound(5, 4, 0.9)
            with pytest.raises(ValueError):
                bound(-1, 4, 0.9)
            with pytest.raises(ValueError):
                bound(1, 4, 1.0)
            with pytest.raises(ValueError):
                bound(1, 0, 0.9)


class TestBinomialTail:
    """Tails through binomial_log_cdf_all; an upper tail Pr[X >= k] is the
    lower tail Pr[Y <= n - k] of Y ~ Bin(n, 1 - p), as the quantile indices
    read it."""

    def test_lower_tail_at_zero(self):
        assert math.exp(binomial_log_cdf_all(10, 0.5)[0]) == pytest.approx(
            0.0009765625, rel=1e-12
        )

    def test_certain_event(self):
        assert math.exp(binomial_log_cdf_all(10, 1.0 - 1.0)[10 - 10]) == 1.0

    def test_sure_success(self):
        # Bin(4, 1) = 4 surely: log Pr[X <= k] is -inf below 4 and 0 at 4
        assert binomial_log_cdf_all(4, 1.0).tolist() == [-math.inf] * 4 + [0.0]

    def test_upper_tail_midpoint(self):
        assert math.exp(binomial_log_cdf_all(10, 1.0 - 0.5)[10 - 5]) == pytest.approx(
            0.623046875, abs=1e-10
        )

    def test_tails_sum(self):
        # P[X <= k] + P[X >= k+1] = 1
        total = math.exp(binomial_log_cdf_all(20, 0.3)[7]) + math.exp(
            binomial_log_cdf_all(20, 1.0 - 0.3)[20 - 8]
        )
        assert total == pytest.approx(1.0, abs=1e-12)

    def test_domain_errors(self):
        with pytest.raises(ValueError):
            binomial_log_cdf_all(-1, 0.5)
        with pytest.raises(ValueError):
            binomial_log_cdf_all(4, 1.5)
        with pytest.raises(ValueError):
            binomial_log_cdf_all(4, math.nan)

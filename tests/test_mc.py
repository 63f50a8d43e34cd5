"""Monte-Carlo certification engine and smoothed prediction."""

import dataclasses
import math

import numpy as np
import pytest

from invarcert.geometry import PointCloud
from invarcert.mc import (
    ABSTAIN,
    McConfig,
    _cut,
    _Sample,
    _samples,
    inverse_certify_reduced,
    lower_quantile_index,
    prob_certify_reduced,
    prob_certify_upper_reduced,
    smooth_predict,
    upper_quantile_index,
)
from invarcert.numerics import (
    NumericalFailure,
    binomial_log_cdf_all,
    clopper_pearson_lower,
    sample_gaussian,
    std_normal_quantile,
)
from invarcert.oracles import SyntheticClassifier
from invarcert.tight import LikelihoodStatistic, so2_problem_from_params
from reference import blackbox_reduced_problem, sorted_cut


class _ConstantClassifier:
    def __init__(self, label):
        self.label = label

    def predict_batch(self, batch):
        return np.full(batch.shape[0], self.label, dtype=int)


class _HashParityClassifier:
    """Deterministic fair-coin: parity of a hash of the noisy input."""

    def predict_batch(self, batch):
        keys = np.floor(batch.reshape(batch.shape[0], -1) * 1e6).astype(np.int64)
        return (keys.sum(axis=1) & 1).astype(int)


class TestMcConfig:
    def test_defaults_match_reported_setup(self):
        mc = McConfig()
        assert (mc.n2, mc.n3, mc.alpha) == (10000, 10000, 0.001)
        assert mc.confidences == (0.999, 0.9995, 1.0 - 0.001 / 3.0)

    def test_validation(self):
        with pytest.raises(ValueError):
            McConfig(n2=50)
        with pytest.raises(ValueError):
            McConfig(n3=50)
        with pytest.raises(ValueError):
            McConfig(alpha=0.6)
        with pytest.raises(ValueError):
            McConfig(alpha=0.0)
        for counts in ({"n2": math.nan}, {"n2": math.inf}, {"n2": 150.5}, {"n3": math.nan}):
            with pytest.raises(ValueError, match="sample counts must be integers"):
                McConfig(**counts)

    def test_numpy_integer_counts_accepted(self):
        mc = McConfig(n2=np.int64(200), n3=np.int32(300))
        assert (mc.n2, mc.n3) == (200, 300)


class TestSmoothPredict:
    def test_constant_classifier(self):
        g = _ConstantClassifier(3)
        x = PointCloud(np.zeros((2, 2)))
        label, p_lower = smooth_predict(g, x, 1.0, 500, 0.01, seed=0)
        assert label == 3
        assert p_lower == pytest.approx(
            clopper_pearson_lower(500, 500, 0.99), rel=1e-12
        )

    def test_fair_coin_abstains(self):
        g = _HashParityClassifier()
        x = PointCloud(np.zeros((3, 2)))
        outcomes = [smooth_predict(g, x, 1.0, 1000, 0.001, seed=s)[0] for s in range(10)]
        assert all(label == ABSTAIN for label in outcomes)

    def test_rejects_zero_sigma(self):
        with pytest.raises(ValueError):
            smooth_predict(_ConstantClassifier(0), PointCloud(np.zeros((1, 2))), 0.0, 10, 0.01, 0)

    @pytest.mark.parametrize("sigma", [math.nan, math.inf])
    def test_rejects_non_finite_sigma(self, sigma):
        with pytest.raises(ValueError, match="finite and > 0"):
            smooth_predict(_ConstantClassifier(0), PointCloud(np.zeros((1, 2))), sigma, 10, 0.01, 0)

    @pytest.mark.parametrize("alpha", [0.0, 0.5, 0.9, -0.1, math.nan])
    def test_rejects_alpha_outside_open_interval(self, alpha):
        # the same rule as McConfig: a p_lower at confidence 1 - alpha <= 1/2 is no bound
        with pytest.raises(ValueError, match="alpha must lie in"):
            smooth_predict(_ConstantClassifier(0), PointCloud(np.zeros((1, 2))), 1.0, 10, alpha, 0)

    @pytest.mark.parametrize("n", [150.5, math.nan, 100.0])
    def test_rejects_non_integer_n(self, n):
        with pytest.raises(ValueError, match="sample counts must be integers"):
            smooth_predict(_ConstantClassifier(0), PointCloud(np.zeros((1, 2))), 1.0, n, 0.01, 0)

    def test_numpy_integer_n_accepted(self):
        label, _ = smooth_predict(
            _ConstantClassifier(2), PointCloud(np.zeros((1, 2))), 1.0, np.int64(100), 0.01, 0
        )
        assert label == 2

    def test_deterministic(self):
        g = SyntheticClassifier("norm", 2.0)
        x = PointCloud(np.ones((3, 2)))
        a = smooth_predict(g, x, 0.8, 2000, 0.01, seed=5)
        b = smooth_predict(g, x, 0.8, 2000, 0.01, seed=5)
        assert a == b


class TestProbCertifyReduced:
    def test_identical_distributions_close_below_p(self):
        problem = so2_problem_from_params(0.3, 0.0, 0.0, 0.0, 0.5)
        mc = McConfig(n2=100_000, n3=100_000, alpha=0.001)
        out = prob_certify_reduced(problem, mc, seed=1, p_lower=0.9)
        assert 0.88 <= out.bound_value <= 0.90

    def test_constant_statistic_no_exception(self):
        # zero covariance: every statistic sample ties at the same value
        problem = so2_problem_from_params(0.0, 0.0, 0.0, 0.0, 0.5)
        constant = LikelihoodStatistic(dim=4, evaluator=lambda q: np.zeros(q.shape[0]))
        problem = dataclasses.replace(problem, statistic=constant)
        mc = McConfig(n2=1000, n3=1000, alpha=0.01)
        out = prob_certify_reduced(problem, mc, seed=2, p_lower=0.8)
        assert 0.0 <= out.bound_value <= 1.0

    def test_threshold_undetermined_flag(self):
        problem = blackbox_reduced_problem(0.5, 0.5)
        mc = McConfig(n2=100, n3=100, alpha=0.001)
        # p so small that even the first order statistic is not significant
        out = prob_certify_reduced(problem, mc, seed=3, p_lower=1e-9)
        assert out.bound_value == 0.0
        assert "threshold-undetermined" in out.notes
        assert not out.certified

    def test_deterministic_given_seed(self):
        problem = so2_problem_from_params(0.2, 0.3, 0.02, 0.01, 0.5)
        mc = McConfig(n2=2000, n3=2000, alpha=0.01)
        a = prob_certify_reduced(problem, mc, seed=11, p_lower=0.8)
        b = prob_certify_reduced(problem, mc, seed=11, p_lower=0.8)
        assert a == b

    def test_ladder_accounting(self):
        problem = so2_problem_from_params(0.2, 0.1, 0.0, 0.0, 0.5)
        mc = McConfig(n2=500, n3=500, alpha=0.01)
        out = prob_certify_reduced(problem, mc, seed=4, p_lower=0.8)
        assert out.confidences == (0.99, 0.995, 1.0 - 0.01 / 3.0)
        assert out.confidence == 0.99
        assert "p-lower-supplied" in out.notes

    def test_nan_statistic_raises(self):
        problem = blackbox_reduced_problem(0.5, 0.5)
        bad = LikelihoodStatistic(dim=1, evaluator=lambda q: np.full(q.shape[0], np.nan))
        problem = dataclasses.replace(problem, statistic=bad)
        mc = McConfig(n2=200, n3=200, alpha=0.01)
        with pytest.raises(NumericalFailure, match="NaN"):
            prob_certify_reduced(problem, mc, seed=6, p_lower=0.8)


class TestTwoSample:
    # "+ 0.0" turns the -0.0 that rounding gives into +0.0: the likelihood-ratio
    # statistics never return -0.0, and only a mix of -0.0 and +0.0 could sort
    # differently under a stable and an unstable sort
    STATISTICS = {
        "constant": lambda q: np.zeros(q.shape[0]),
        "rounded": lambda q: np.round(q[:, 0], 1) + 0.0,
        "continuous": lambda q: q[:, 0],
    }

    @pytest.mark.parametrize("below", [True, False])
    @pytest.mark.parametrize("n_star", [1, 137, 500, 1000])
    @pytest.mark.parametrize("name", sorted(STATISTICS))
    def test_matches_stable_sort_reference(self, name, n_star, below):
        statistic = LikelihoodStatistic(dim=1, evaluator=self.STATISTICS[name])
        problem = dataclasses.replace(blackbox_reduced_problem(0.3, 1.0), statistic=statistic)
        got = _cut(problem, *_samples(problem, McConfig(1000, 1000), 12, first=1), n_star, below)
        # the lower and upper bounds' streams: children 1 (clean) and 2 (perturbed)
        _, clean, perturbed = np.random.SeedSequence(12).spawn(3)
        threshold = statistic(
            sample_gaussian(problem.mean_clean, 1000, np.random.default_rng(clean), problem.factor)
        )
        stable = np.sort(threshold, kind="stable")
        assert np.sort(threshold).tobytes() == stable.tobytes()
        counted = statistic(sample_gaussian(
            problem.mean_perturbed, 1000, np.random.default_rng(perturbed), problem.factor
        ))
        assert repr(got) == repr(sorted_cut(stable, counted, n_star, below))


class TestSampleRefine:
    # draws hold each row's index, so the spy reads which rows it is asked for
    N = 200

    def _spy(self, **bracket):
        calls = []

        def evaluator(q):
            calls.append(q[:, 0].astype(int).tolist())
            return 2.0 * q[:, 0]

        statistic = LikelihoodStatistic(dim=1, evaluator=evaluator, **bracket)
        problem = dataclasses.replace(blackbox_reduced_problem(0.3, 1.0), statistic=statistic)
        return problem, _Sample(problem, np.arange(float(self.N))[:, None]), calls

    def test_repeated_cuts_evaluate_no_row_twice(self):
        problem, sample, calls = self._spy(bracket=lambda q: (2.0 * q[:, 0] - 1.0,
                                                              2.0 * q[:, 0] + 1.0))
        assert calls == []
        rng = np.random.default_rng(3)
        known = np.zeros(self.N, dtype=bool)
        for density in (0.0, 0.3, 0.3, 0.6, 0.0, 0.9):
            rows = rng.random(self.N) < density
            before = len(calls)
            sample.refine(problem, rows)
            todo = np.flatnonzero(rows & ~known).tolist()
            assert calls[before:] == ([todo] if todo else [])
            known |= rows
            sample.refine(problem, rows)   # nothing left to evaluate in this mask
            assert len(calls) == before + bool(todo)
        assert sorted(sum(calls, [])) == np.flatnonzero(known).tolist()
        index = np.arange(self.N)
        assert np.array_equal(sample.lo[known], 2.0 * index[known])
        assert np.array_equal(sample.hi[known], 2.0 * index[known])
        assert np.array_equal(sample.lo[~known], 2.0 * index[~known] - 1.0)
        assert np.array_equal(sample.hi[~known], 2.0 * index[~known] + 1.0)
        assert sample.draws is not None

    def test_every_row_unknown_is_one_whole_call(self):
        problem, sample, calls = self._spy()   # the unbounded bracket
        sample.refine(problem, np.zeros(self.N, dtype=bool))
        assert calls == []
        sample.refine(problem, np.ones(self.N, dtype=bool))
        assert calls == [list(range(self.N))]
        assert sample.lo is sample.hi and not sample.lo.flags.writeable
        assert np.array_equal(sample.lo, 2.0 * np.arange(self.N))
        assert sample.draws is None
        sample.refine(problem, np.ones(self.N, dtype=bool))
        assert len(calls) == 1


def _never_evaluated(q):
    raise AssertionError("no statistic row may be drawn")


class TestVacuousBounds:
    # 2^-100 ~ 7.9e-31: at n2 = 100 no order statistic of a p = 1/2 quantile
    # is significant at alpha = 1e-31, so neither procedure draws
    MC = McConfig(100, 100, alpha=1e-31)

    def _problem(self):
        statistic = LikelihoodStatistic(dim=1, evaluator=_never_evaluated)
        return dataclasses.replace(blackbox_reduced_problem(0.5, 0.5), statistic=statistic)

    def test_upper_bound(self):
        problem = self._problem()
        assert prob_certify_upper_reduced(problem, self.MC, seed=1, p_upper=0.5) == 1.0
        assert problem.statistic_samples == {}

    def test_inverse_bound(self):
        problem = self._problem()
        assert inverse_certify_reduced(problem, self.MC, seed=1) == 1.0
        assert problem.statistic_samples == {}


class TestLikelihoodStatistic:
    def test_dimension_mismatch(self):
        statistic = LikelihoodStatistic(dim=2, evaluator=lambda q: q[:, 0])
        assert statistic(np.ones((3, 2))).tolist() == [1.0, 1.0, 1.0]
        with pytest.raises(ValueError, match="sample dimension mismatch"):
            statistic(np.ones((3, 4)))


class TestUpperReduced:
    def test_identical_distributions_close_above_p(self):
        problem = so2_problem_from_params(0.3, 0.0, 0.0, 0.0, 0.5)
        mc = McConfig(n2=100_000, n3=100_000, alpha=0.001)
        up = prob_certify_upper_reduced(problem, mc, seed=7, p_upper=0.1)
        assert 0.10 <= up <= 0.12

    def test_monotone_in_p_upper(self):
        problem = so2_problem_from_params(0.2, 0.3, 0.02, 0.01, 0.5)
        mc = McConfig(n2=5000, n3=5000, alpha=0.01)
        ups = [
            prob_certify_upper_reduced(problem, mc, seed=8, p_upper=p)
            for p in (0.05, 0.1, 0.2, 0.4)
        ]
        assert all(a <= b + 1e-12 for a, b in zip(ups, ups[1:]))


class TestInverseReduced:
    def test_identical_distributions(self):
        problem = so2_problem_from_params(0.3, 0.0, 0.0, 0.0, 0.5)
        mc = McConfig(n2=100_000, n3=100_000, alpha=0.001)
        pmin = inverse_certify_reduced(problem, mc, seed=9)
        assert 0.50 <= pmin <= 0.53

    def test_bounds(self):
        mc = McConfig(n2=1000, n3=1000, alpha=0.01)
        for shift in (0.0, 0.5, 2.0, 6.0):
            problem = blackbox_reduced_problem(shift, 1.0)
            pmin = inverse_certify_reduced(problem, mc, seed=10)
            assert 0.5 <= pmin <= 1.0

    def test_monotone_in_shift(self):
        mc = McConfig(n2=20_000, n3=20_000, alpha=0.001)
        pmins = [
            inverse_certify_reduced(blackbox_reduced_problem(shift, 1.0), mc, seed=11)
            for shift in (0.1, 0.5, 1.0, 2.0)
        ]
        assert all(a <= b + 1e-12 for a, b in zip(pmins, pmins[1:]))

    def test_shared_normals_change_no_draw(self):
        # one dict kept across problems of two factor widths: each reads the
        # draws it would read alone, and the dict holds only the latest
        # pair of standard normals, read-only
        mc = McConfig(n2=300, n3=200, alpha=0.01)
        normals = {}
        for problem in (
            so2_problem_from_params(0.5, 0.3, 0.05, 0.02, 0.5),
            blackbox_reduced_problem(1.0, 1.0),
            so2_problem_from_params(0.5, 0.3, 0.0, 0.1, 0.5),
        ):
            shared = _samples(problem, mc, 4, 0, normals)
            alone = _samples(dataclasses.replace(problem), mc, 4, 0)
            for a, b in zip(shared, alone):
                assert a.draws.tobytes() == b.draws.tobytes()
            (pair,) = normals.values()
            width = problem.factor.shape[1]
            assert [z.shape for z in pair] == [(300, width), (200, width)]
            assert not any(z.flags.writeable for z in pair)


class TestOrderStatisticBounds:
    def test_lower_quantile_index_validity(self):
        # kappa = R^(n*) must undershoot the true quantile in >= 1 - alpha/2
        # of trials; verified on a standard normal with known quantiles
        trials, level, significance = 400, 0.8, 0.025
        n_star = lower_quantile_index(trials, level, significance)
        assert n_star is not None
        rng = np.random.default_rng(12)
        true_quantile = std_normal_quantile(level)
        violations = 0
        n_trials = 2000
        for _ in range(n_trials):
            sample = np.sort(rng.standard_normal(trials))
            if sample[n_star - 1] > true_quantile:
                violations += 1
        limit = significance * n_trials
        margin = 3 * math.sqrt(n_trials * significance * (1 - significance))
        assert violations <= limit + margin

    def test_upper_quantile_index_validity(self):
        trials, significance = 400, 0.01
        n_star = upper_quantile_index(trials, 0.5, significance)
        assert n_star is not None
        rng = np.random.default_rng(13)
        violations = 0
        n_trials = 2000
        for _ in range(n_trials):
            sample = np.sort(rng.standard_normal(trials))
            if sample[n_star - 1] < 0.0:  # true median
                violations += 1
        margin = 3 * math.sqrt(n_trials * significance * (1 - significance))
        assert violations <= significance * n_trials + margin

    def test_no_index_when_rate_too_low(self):
        assert lower_quantile_index(100, 1e-9, 0.0005) is None

    QUANTILE_ALPHA = 1e-3

    @staticmethod
    def _brute_lower(trials, level, significance):
        # largest n >= 1 with log Pr[Bin(trials, level) <= n] < log significance
        logcdf = binomial_log_cdf_all(trials, level)
        found = None
        for n in range(1, trials + 1):
            if logcdf[n] < math.log(significance):
                found = n
        return found

    @staticmethod
    def _brute_upper(trials, level, significance):
        # smallest n >= 1 with log Pr[Bin(trials, level) >= n] < log significance,
        # the tail read as Pr[Bin(trials, 1 - level) <= trials - n]
        logcdf = binomial_log_cdf_all(trials, 1.0 - level)
        for n in range(trials + 1):
            if logcdf[trials - n] < math.log(significance):
                return max(n, 1)
        return None

    @pytest.mark.parametrize("trials", [100, 101, 1000, 10_000])
    def test_indices_match_their_definitions(self, trials):
        alpha = self.QUANTILE_ALPHA
        got = {"lower": [], "upper": []}
        for level in (1e-9, 0.05, 0.5, 0.95, 1.0 - 1e-9):
            for significance in (alpha, alpha / 2.0, alpha / 3.0):
                lower = lower_quantile_index(trials, level, significance)
                upper = upper_quantile_index(trials, level, significance)
                assert lower == self._brute_lower(trials, level, significance)
                assert upper == self._brute_upper(trials, level, significance)
                got["lower"].append(lower)
                got["upper"].append(upper)
        # both None edges are reached, and so are proper indices
        for indices in got.values():
            assert None in indices
            assert any(n is not None for n in indices)

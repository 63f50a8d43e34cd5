"""Bracketed statistics: the SO(2) bracket contains the float the statistic
returns, the Monte-Carlo cut read from brackets equals the cut read from
every exact value, and a dropped reduced problem frees its kept samples."""

import dataclasses
import gc
import math
import weakref

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from invarcert import tight
from invarcert.geometry import GroupKind, PointCloud, rot2
from invarcert.mc import (
    McConfig,
    _cut,
    _samples,
    inverse_certify_reduced,
    lower_quantile_index,
    prob_certify_reduced,
    prob_certify_upper_reduced,
    upper_quantile_index,
)
from invarcert.numerics import log_bessel_i0, log_bessel_i0_bounds
from invarcert.tight import (
    LikelihoodStatistic,
    build_so2_problem,
    certify_multiclass,
    rho_so2,
    so2_problem_from_params,
)
from reference import sorted_cut

RHO = rho_so2()
TINY = np.finfo(float).smallest_subnormal


def _edges() -> np.ndarray:
    """Every bucket edge of the log I0 table, with its neighbours 1 ulp away."""
    binades = np.arange(-60, 40)
    edges = np.ldexp((1.0 + np.arange(1024) / 1024)[None, :], binades[:, None]).ravel()
    edges = np.append(edges, 2.0**40)
    return np.concatenate([np.nextafter(edges, 0.0), edges, np.nextafter(edges, np.inf)])


def _assert_contains(q: np.ndarray) -> None:
    lo, hi = RHO.bracket(q)
    assert not (np.isnan(lo).any() or np.isnan(hi).any())
    exact = RHO(q)
    assert np.all(lo <= exact) and np.all(exact <= hi)


class TestSo2Bracket:
    def test_table_edges_both_sides(self):
        radii = _edges()
        other = np.random.default_rng(0).permutation(radii)
        zero = np.zeros_like(radii)
        # off the axes, hypot and the bracket's sqrt of the summed squares
        # can round to opposite sides of an edge
        angle = np.random.default_rng(1).uniform(0.0, 2.0 * np.pi, radii.size)
        cos, sin = radii * np.cos(angle), radii * np.sin(angle)
        for q in (
            np.stack([radii, zero, zero, zero], axis=1),
            np.stack([zero, zero, zero, radii], axis=1),
            np.stack([radii, zero, other, zero], axis=1),
            np.stack([zero, other, radii, zero], axis=1),
            np.stack([cos, sin, zero, zero], axis=1),
            np.stack([zero, zero, sin, cos], axis=1),
            np.stack([cos, sin, sin, cos], axis=1),
        ):
            _assert_contains(q)

    def test_small_radii_both_sides(self):
        # log(i0e(x)) + x cancels below x ~ 2^-10: its rounding noise is the
        # bracket's widest relative to the value
        x = np.exp(np.random.default_rng(1).uniform(np.log(1e-20), np.log(1e-2), (200_000, 4)))
        _assert_contains(x * np.sign(np.random.default_rng(2).standard_normal(x.shape)))

    @pytest.mark.parametrize(
        "row",
        [
            [0.0, 0.0, 0.0, 0.0],
            [TINY, 0.0, 0.0, TINY],
            [0.0, -TINY, 3.0 * TINY, 0.0],
            [2.2250738585072014e-308, 1e-310, -1e-200, 1e-160],
            [1e-170, 0.0, 2.0**-60, 0.0],
            [2.0**-61, 2.0**-61, 0.0, 0.0],
            [3.0, 4.0, 0.0, 0.0],
            [2.0**40, 0.0, 1.0, 0.0],
            [0.0, 1.0, 0.0, -(2.0**40)],
            [1e13, 1.0, 1e12, 1.0],
            [1e100, 0.0, 5.0, 5.0],
            [1.3e154, 1.3e154, 1.0, 0.0],
            [1.35e154, 0.0, 1.0, 0.0],
            [1.0, 2.0, -1.4e154, 1e154],
        ],
    )
    def test_fixed_rows(self, row):
        _assert_contains(np.array([row]))

    @pytest.mark.parametrize(
        "row,bounded",
        [([1e-3, 2e-3, 3.0, 4.0], True), ([2.0**40, 0.0, 1.0, 0.0], False),
         ([1e13, 1.0, 1e12, 1.0], False), ([1.0, 0.0, 0.0, 1e100], False)],
    )
    def test_beyond_table_is_unbounded(self, row, bounded):
        lo, hi = RHO.bracket(np.array([row]))
        assert (-np.inf < lo[0] and hi[0] < np.inf) == bounded
        assert (lo[0] == -np.inf and hi[0] == np.inf) == (not bounded)

    @pytest.mark.parametrize("bad", [np.inf, -np.inf, np.nan, 1e200])
    @pytest.mark.parametrize("column", [0, 3])
    def test_non_finite_rows_are_unbounded(self, bad, column):
        q = np.array([[1.0, 2.0, 3.0, 4.0], [1.0, 2.0, 3.0, 4.0]])
        q[1, column] = bad
        lo, hi = RHO.bracket(q)
        assert (lo[1], hi[1]) == (-np.inf, np.inf)
        assert -np.inf < lo[0] <= RHO(q[:1])[0] <= hi[0] < np.inf
        if not np.isfinite(bad):
            with pytest.raises(ValueError, match="finite"):
                RHO(q)

    def test_bounds_are_table_edges(self):
        x = np.array([0.0, 1e-30, 1.0, 1.5 + 2**-12])
        lo, hi = log_bessel_i0_bounds(x)
        assert lo[:2].tolist() == [0.0, 0.0]
        assert hi[:2].tolist() == [log_bessel_i0(2.0**-60)] * 2
        assert (lo[2], hi[2]) == (log_bessel_i0(1.0), log_bessel_i0(1.0 + 2**-10))
        assert (lo[3], hi[3]) == (log_bessel_i0(1.5), log_bessel_i0(1.5 + 2**-10))


_COMPONENT = st.one_of(
    st.floats(-50.0, 50.0),
    st.floats(-1e160, 1e160),
    st.floats(-1e-3, 1e-3),
    st.sampled_from([0.0, TINY, 2.0**-60, 2.0**40, 2.0**-10, 1.34e154, 1e300]),
)


@settings(max_examples=400, deadline=None)
@given(st.lists(st.tuples(_COMPONENT, _COMPONENT, _COMPONENT, _COMPONENT), min_size=1, max_size=8))
def test_bracket_contains_statistic(rows):
    _assert_contains(np.array(rows, dtype=float))


def _exact(problem):
    """The same problem with a statistic that has no bracket: every row is
    evaluated when drawn."""
    return dataclasses.replace(
        problem, statistic=dataclasses.replace(problem.statistic, bracket=None)
    )


def _problems():
    rng = np.random.default_rng(5)
    x = PointCloud(rng.standard_normal((6, 2)))
    cases = {
        "rotation": build_so2_problem(x, PointCloud(x.data @ rot2(0.8).T), 0.5),
        "identity": build_so2_problem(x, x, 0.5),
        "all-tie": so2_problem_from_params(0.0, 0.0, 0.0, 0.0, 0.5),
        "large": so2_problem_from_params(30.0, 2.0, 20.0, 30.0, 0.3),
    }
    for k in range(4):
        nx, nd = rng.uniform(0.1, 3.0, 2)
        e = rng.uniform(-1.0, 1.0, 2)
        e /= max(1.0, math.hypot(*e))
        sigma = float(rng.choice([0.1, 0.5, 2.0]))
        cases[f"random-{k}"] = so2_problem_from_params(nx, nd, e[0] * nx * nd, e[1] * nx * nd,
                                                       sigma)
    return cases


PROBLEMS = _problems()
MC = McConfig(n2=3000, n3=2000, alpha=0.001)


class TestBracketedCut:
    """The cut read from brackets equals the cut read from every exact value
    (repr of kappa and of every count), for the lower, upper and inverse
    procedures, and over successive cuts of one kept pair."""

    @pytest.mark.parametrize("name", sorted(PROBLEMS))
    def test_cuts_match_all_exact(self, name):
        problem = PROBLEMS[name]
        bracketed = dataclasses.replace(problem)
        exact = _exact(problem)
        cuts = [(1, lower_quantile_index(MC.n2, p, MC.alpha / 2.0), True)
                for p in (0.6, 0.9, 0.999)]
        cuts += [(1, lower_quantile_index(MC.n2, 1.0 - p, MC.alpha / 2.0), False)
                 for p in (0.01, 0.3)]
        cuts += [(0, upper_quantile_index(MC.n2, 0.5, MC.alpha), True), (1, 1, True),
                 (1, MC.n2, False)]
        for seed in (1, 2):
            for first, n_star, below in cuts:
                got = _cut(bracketed, *_samples(bracketed, MC, seed, first), n_star, below)
                want = _cut(exact, *_samples(exact, MC, seed, first), n_star, below)
                assert repr(got) == repr(want)
                threshold, counted = _samples(exact, MC, seed, first)
                assert repr(got) == repr(sorted_cut(threshold.lo, counted.lo, n_star, below))

    @pytest.mark.parametrize("name", sorted(PROBLEMS))
    def test_procedures_match_all_exact(self, name):
        def outcomes(problem):
            return [
                (prob_certify_reduced(problem, MC, seed, p_lower=0.9),
                 prob_certify_upper_reduced(problem, MC, seed, p_upper=0.05),
                 inverse_certify_reduced(problem, MC, seed))
                for seed in (3, 4)
            ]

        problem = PROBLEMS[name]
        assert repr(outcomes(dataclasses.replace(problem))) == repr(outcomes(_exact(problem)))

    def test_evaluates_few_rows(self):
        rows = []

        def counting(q):
            rows.append(q.shape[0])
            return RHO(q)

        statistic = LikelihoodStatistic(4, counting, bracket=RHO.bracket)
        problem = dataclasses.replace(PROBLEMS["random-0"], statistic=statistic)
        inverse_certify_reduced(problem, MC, 1)
        prob_certify_reduced(problem, MC, 1, p_lower=0.9)
        prob_certify_upper_reduced(problem, MC, 1, p_upper=0.05)
        assert 0 < sum(rows) < 0.1 * 2 * (MC.n2 + MC.n3)
        # kept rows evaluated once: repeating a cut evaluates nothing
        calls = len(rows)
        prob_certify_upper_reduced(problem, MC, 1, p_upper=0.05)
        assert len(rows) == calls


class TestDroppedProblemFreesSamples:
    """A reduced problem and its kept samples form no reference cycle, so
    dropping the problem frees them without the cyclic collector."""

    @pytest.fixture(autouse=True)
    def _no_cyclic_gc(self):
        gc.collect()
        gc.disable()
        yield
        gc.enable()

    @staticmethod
    def _refs(problem):
        (pair,) = problem.statistic_samples.values()
        return [weakref.ref(problem)] + [weakref.ref(o) for s in pair for o in (s, s.draws)]

    def test_after_inverse(self):
        problem = so2_problem_from_params(1.0, 0.5, 0.1, 0.2, 0.5)
        inverse_certify_reduced(problem, MC, 1)
        refs = self._refs(problem)
        del problem
        assert [ref() for ref in refs] == [None] * len(refs)

    def test_after_multiclass(self, monkeypatch):
        built = []
        build = tight._rotation_problem

        def keeping(*args):
            built.append(build(*args))
            return built[-1]

        monkeypatch.setattr(tight, "_rotation_problem", keeping)
        x = PointCloud(np.random.default_rng(8).standard_normal((5, 2)))
        xp = PointCloud(x.data + 0.1)
        out = certify_multiclass(GroupKind.ROTATION, x, xp, 0.9, 0.05, 0.5, MC, 2)
        assert out.method == "multiclass-tight-SO2"
        refs = self._refs(built.pop())
        assert [ref() for ref in refs] == [None] * len(refs)

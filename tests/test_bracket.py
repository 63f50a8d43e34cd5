"""Bracketed statistics: the SO(2) and SO(3) brackets contain the float the
statistic returns and keep the bracket contract, the Monte-Carlo cut read
from brackets equals the cut read from every exact value, drawing evaluates
nothing, and a dropped reduced problem frees its kept samples."""

import dataclasses
import gc
import math
import weakref

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st
from scipy import special

from invarcert import tight
from invarcert.geometry import GroupKind, PointCloud, center, rot2
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
from invarcert.numerics import (
    log_bessel_i0,
    log_bessel_i0_bounds,
    log_i0e_lower,
    log_i0e_upper,
)
from invarcert.tight import (
    LikelihoodStatistic,
    build_so2_problem,
    build_so3_problem,
    certify_multiclass,
    rho_so2,
    rho_so3,
    so2_problem_from_params,
    so3_log_beta,
)
from reference import sorted_cut

RHO = rho_so2()
RHO3 = rho_so3()
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


@pytest.mark.parametrize("statistic", [RHO, RHO3], ids=["rho_so2", "rho_so3"])
def test_bracket_contract(statistic):
    # two distinct writable (n,) arrays, never NaN, lo <= hi, and (-inf, inf)
    # on rows with a non-finite entry
    rng = np.random.default_rng(4)
    q = 3.0 * rng.standard_normal((40, statistic.dim))
    for row, bad in ((5, np.nan), (11, np.inf), (17, -np.inf), (39, np.nan)):
        q[row, row % statistic.dim] = bad
    lo, hi = statistic.bracket(q)
    assert lo.shape == hi.shape == (40,)
    assert lo.flags.writeable and hi.flags.writeable and not np.shares_memory(lo, hi)
    assert not (np.isnan(lo).any() or np.isnan(hi).any())
    assert np.all(lo <= hi)
    finite = np.isfinite(q).all(axis=1)
    assert np.all(lo[~finite] == -np.inf) and np.all(hi[~finite] == np.inf)
    assert np.all(np.isfinite(lo[finite]) & np.isfinite(hi[finite]))


def _assert_contains_so3(m: np.ndarray) -> None:
    """Each log beta of the (n, 3, 3) batch and each rho_so3 of the pairs of
    its consecutive matrices lie inside their brackets."""
    q = np.hstack([m[:-1].transpose(0, 2, 1).reshape(-1, 9),
                   m[1:].transpose(0, 2, 1).reshape(-1, 9)])
    lo, hi = tight._log_beta_bounds(m)
    rho_lo, rho_hi = RHO3.bracket(q)
    value = so3_log_beta(m)[0]
    rho = RHO3(q)
    assert np.all(lo <= value) and np.all(value <= hi)
    assert not (np.isnan(rho_lo).any() or np.isnan(rho_hi).any())
    assert np.all(rho_lo <= rho) and np.all(rho <= rho_hi)


def _rotations(rng, n):
    q, r = np.linalg.qr(rng.standard_normal((n, 3, 3)))
    q *= np.sign(np.diagonal(r, axis1=1, axis2=2))[:, None, :]
    q[np.linalg.det(q) < 0.0, :, 0] *= -1.0
    return q


class TestSo3Bracket:
    @pytest.mark.parametrize("seed", range(4))
    def test_mixed_scales(self, seed):
        rng = np.random.default_rng(seed)
        n = 600
        scale = 10.0 ** rng.uniform(-3.0, 7.0, (n, 1, 1))
        scale[:20] = 0.0
        noise = rng.standard_normal((n, 3, 3))
        kinds = [
            noise,                                                       # generic
            np.einsum("ni,nj->nij", noise[:, 0], noise[:, 1]),           # rank 1
            _rotations(rng, n) + 1e-2 * noise,                           # near a rotation
            _rotations(rng, n) * np.array([1.0, 1.0, -1.0]) + 0.1 * noise,   # det < 0
        ]
        # singular values spread over up to 8 decades: the eigenvalues of
        # M^T M lose the small ones' digits
        spread = 10.0 ** -rng.uniform(0.0, 8.0, (n, 1, 3))
        spread[:, :, 0] = 1.0
        kinds.append((_rotations(rng, n) * spread) @ _rotations(rng, n))
        for m in kinds:
            _assert_contains_so3(scale * m)

    @pytest.mark.parametrize("scale", [0.0, 1e-3, 1.0, 10.0, 22.5, 300.0, 1e5, 1e7])
    def test_k_zero_and_rank_one(self, scale):
        # s2 + s3 = 0 (det < 0), s2 = s3 = 0, and s1 = s2 = s3
        rotations = _rotations(np.random.default_rng(1), 4)
        diagonals = np.array([[2.0, 1.0, -1.0], [1.0, 0.0, 0.0], [1.0, 1.0, 1.0],
                              [1.0, 0.5, -0.5]])
        m = rotations @ (diagonals[:, :, None] * np.eye(3)) @ rotations[::-1]
        _assert_contains_so3(scale * m)

    @pytest.mark.parametrize("scale", [1.0, 10.0, 1e3, 1e5, 1e7])
    def test_exact_rotation_pairs(self, scale):
        # both halves of each row share their singular values, so rho_so3 is
        # 0 up to rounding: the bracket must hold the rounding too
        rng = np.random.default_rng(int(scale))
        m = scale * rng.standard_normal((300, 3, 3))
        turned = m @ _rotations(rng, 300)
        q = np.hstack([m.transpose(0, 2, 1).reshape(-1, 9),
                       turned.transpose(0, 2, 1).reshape(-1, 9)])
        lo, hi = RHO3.bracket(q)
        exact = RHO3(q)
        assert np.all(lo <= exact) and np.all(exact <= hi)
        assert np.all(lo < 0.0) and np.all(hi > 0.0)

    def test_log_i0e_bounds_at_every_edge(self):
        # the table edges and their neighbours 1 ulp away, up to the few eps
        # of rounding that callers add
        x = np.concatenate([[0.0, TINY, 1e-300], _edges()[:-1]])
        value = np.log(special.i0e(x))
        slack = 4.0 * np.finfo(float).eps * (np.abs(value) + 1.0)
        assert np.all(log_i0e_lower(x) <= value + slack)
        assert np.all(value <= log_i0e_upper(x) + slack)
        beyond = np.array([2.0**40, 1e300, np.inf, np.nan])
        assert np.all(log_i0e_upper(beyond) == np.inf)
        assert np.all(log_i0e_lower(beyond) == -np.inf)

    def test_rows_it_cannot_bound(self):
        # overflowing singular-value sums and Bessel arguments beyond the
        # table get (-inf, inf), so every cut evaluates them
        m = np.stack([np.eye(3), 1e308 * np.eye(3), 1e12 * np.eye(3)])
        lo, hi = tight._log_beta_bounds(m)
        assert np.isfinite(lo[0]) and np.isfinite(hi[0])
        assert lo[1:].tolist() == [-np.inf] * 2 and hi[1:].tolist() == [np.inf] * 2


_COMPONENT3 = st.one_of(
    st.floats(-50.0, 50.0),
    st.floats(-1e7, 1e7),
    st.floats(-1e-3, 1e-3),
    st.sampled_from([0.0, TINY, 1e-300, 1.0, 22.5, 1e5]),
)


@settings(max_examples=300, deadline=None)
@given(st.lists(st.lists(_COMPONENT3, min_size=9, max_size=9), min_size=2, max_size=6))
# an exactly singular matrix, whose det divides by zero, and a subnormal k,
# whose Gaussian cut-off overflows: under pytest's error::RuntimeWarning
# both must stay silent
@example([[0.0] * 9, [1.0, 0.0, 0.0, 0.0, 0.0, 1.0, 0.0, 5e-324, 0.0]])
@example([[0.0] * 9, [0.0, 0.0, 0.0, 0.0, 0.0, 1.0, 0.0, 2.225073858507203e-309, 0.0]])
def test_so3_bracket_contains_log_beta(rows):
    _assert_contains_so3(np.array(rows, dtype=float).reshape(-1, 3, 3))


def _unbounded(q):
    return np.full(q.shape[0], -np.inf), np.full(q.shape[0], np.inf)


def _exact(problem):
    """The same problem with a bracket that bounds nothing, written here
    rather than taken from the engine: each sample's first cut evaluates
    every row."""
    return dataclasses.replace(
        problem, statistic=dataclasses.replace(problem.statistic, bracket=_unbounded)
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


def _cuts(mc):
    cuts = [(1, lower_quantile_index(mc.n2, p, mc.alpha / 2.0), True) for p in (0.6, 0.9, 0.999)]
    cuts += [(1, lower_quantile_index(mc.n2, 1.0 - p, mc.alpha / 2.0), False)
             for p in (0.01, 0.3)]
    cuts += [(0, upper_quantile_index(mc.n2, 0.5, mc.alpha), True), (1, 1, True),
             (1, mc.n2, False)]
    assert all(n_star is not None for _, n_star, _ in cuts)
    return cuts


def _assert_cuts_match(problem, mc):
    bracketed = dataclasses.replace(problem)
    exact = _exact(problem)
    for seed in (1, 2):
        for first, n_star, below in _cuts(mc):
            got = _cut(bracketed, *_samples(bracketed, mc, seed, first), n_star, below)
            want = _cut(exact, *_samples(exact, mc, seed, first), n_star, below)
            assert repr(got) == repr(want)
            threshold, counted = _samples(exact, mc, seed, first)
            assert repr(got) == repr(sorted_cut(threshold.lo, counted.lo, n_star, below))


def _assert_procedures_match(problem, mc):
    def outcomes(problem):
        return [
            (prob_certify_reduced(problem, mc, seed, p_lower=0.9),
             prob_certify_upper_reduced(problem, mc, seed, p_upper=0.05),
             inverse_certify_reduced(problem, mc, seed))
            for seed in (3, 4)
        ]

    assert repr(outcomes(dataclasses.replace(problem))) == repr(outcomes(_exact(problem)))


def _evaluated_rows(problem, mc) -> list[int]:
    """Rows evaluated by the inverse, lower and upper procedures on one seed;
    repeating a cut of the kept pair evaluates nothing more."""
    rows = []
    statistic = problem.statistic

    def counting(q):
        rows.append(q.shape[0])
        return statistic(q)

    counted = dataclasses.replace(
        problem, statistic=dataclasses.replace(statistic, evaluator=counting)
    )
    inverse_certify_reduced(counted, mc, 1)
    prob_certify_reduced(counted, mc, 1, p_lower=0.9)
    prob_certify_upper_reduced(counted, mc, 1, p_upper=0.05)
    calls = len(rows)
    prob_certify_upper_reduced(counted, mc, 1, p_upper=0.05)
    assert len(rows) == calls
    return rows


class TestBracketedCut:
    """The cut read from brackets equals the cut read from every exact value
    (repr of kappa and of every count), for the lower, upper and inverse
    procedures, and over successive cuts of one kept pair."""

    @pytest.mark.parametrize("name", sorted(PROBLEMS))
    def test_cuts_match_all_exact(self, name):
        _assert_cuts_match(PROBLEMS[name], MC)

    @pytest.mark.parametrize("name", sorted(PROBLEMS))
    def test_procedures_match_all_exact(self, name):
        _assert_procedures_match(PROBLEMS[name], MC)

    def test_evaluates_few_rows(self):
        rows = _evaluated_rows(PROBLEMS["random-0"], MC)
        assert 0 < sum(rows) < 0.1 * 2 * (MC.n2 + MC.n3)


def _problems_3d():
    rng = np.random.default_rng(6)
    x = rng.standard_normal((8, 3))
    turn = _rotations(rng, 1)[0]
    cases = {}
    for scale in (10.0, 1e3, 1e5):
        sigma = float(np.linalg.norm(x)) / math.sqrt(scale)
        noisy = x @ turn.T + 0.5 * sigma * rng.standard_normal(x.shape) / math.sqrt(x.size)
        cases[f"so3-noisy-{scale:g}"] = build_so3_problem(PointCloud(x), PointCloud(noisy),
                                                          sigma)
        cases[f"se3-noisy-{scale:g}"] = build_so3_problem(
            center(PointCloud(x)), center(PointCloud(noisy + 1.0)), sigma
        )
    sigma = float(np.linalg.norm(x)) / math.sqrt(10.0)
    cases["so3-rotation"] = build_so3_problem(PointCloud(x), PointCloud(x @ turn.T), sigma)
    cases["so3-identity"] = build_so3_problem(PointCloud(x), PointCloud(x), sigma)
    return cases


PROBLEMS_3D = _problems_3d()
MC_3D = McConfig(n2=800, n3=600, alpha=0.001)


class TestBracketedCut3d:
    """As TestBracketedCut, for SO(3) and SE(3) problems: noisy ones at three
    scales, an exact rotation and X' = X, whose rows all straddle kappa."""

    @pytest.mark.parametrize("name", sorted(PROBLEMS_3D))
    def test_cuts_match_all_exact(self, name):
        _assert_cuts_match(PROBLEMS_3D[name], MC_3D)

    @pytest.mark.parametrize("name", sorted(PROBLEMS_3D))
    def test_procedures_match_all_exact(self, name):
        _assert_procedures_match(PROBLEMS_3D[name], MC_3D)

    @pytest.mark.parametrize("name", sorted(PROBLEMS_3D))
    def test_brackets_bound_every_row(self, name):
        problem = dataclasses.replace(PROBLEMS_3D[name])
        for first in (0, 1):
            for sample in _samples(problem, MC_3D, 1, first):
                assert np.isfinite(sample.hi - sample.lo).all()

    @pytest.mark.parametrize("name", ["so3-noisy-1000", "se3-noisy-100000"])
    def test_noisy_problem_evaluates_few_rows(self, name):
        rows = _evaluated_rows(PROBLEMS_3D[name], MC_3D)
        assert 0 < sum(rows) < 0.1 * 2 * (MC_3D.n2 + MC_3D.n3)


class TestDrawingEvaluatesNothing:
    """Drawing a pair evaluates no row; without a bracket, the first cut of
    each sample evaluates it whole in one call, and later cuts of the kept
    pair reuse those values."""

    def test_rows_evaluated_by_cuts(self):
        rows = []

        def counting(q):
            rows.append(q.shape[0])
            return RHO(q)

        statistic = LikelihoodStatistic(4, counting)
        problem = dataclasses.replace(PROBLEMS["random-0"], statistic=statistic)
        _samples(problem, MC, 1, 1)
        assert rows == []
        prob_certify_reduced(problem, MC, 1, p_lower=0.9)
        assert rows == [MC.n2, MC.n3]
        prob_certify_upper_reduced(problem, MC, 1, p_upper=0.05)
        assert rows == [MC.n2, MC.n3]

    def test_so3_pair_kept_with_its_draws(self):
        # the pair is drawn once and kept with its draws; each row is
        # evaluated at most once, and fewer than all of them, and every kept
        # value is the statistic's on its draw, byte for byte
        rng = np.random.default_rng(9)
        x = PointCloud(rng.standard_normal((4, 3)))
        problem = build_so3_problem(x, PointCloud(x.data + 0.2 * rng.standard_normal((4, 3))), 0.5)
        evaluated = []

        def recording(q):
            evaluated.append(q.copy())
            return problem.statistic.evaluator(q)

        kept = dataclasses.replace(
            problem, statistic=dataclasses.replace(problem.statistic, evaluator=recording)
        )
        mc = McConfig(n2=300, n3=200, alpha=0.001)
        prob_certify_reduced(kept, mc, 3, p_lower=0.9)
        prob_certify_upper_reduced(kept, mc, 3, p_upper=0.05)
        (pair,) = kept.statistic_samples.values()
        rows = np.concatenate(evaluated)
        assert len(np.unique(rows, axis=0)) == len(rows) < 300 + 200
        for s, n in zip(pair, (300, 200)):
            assert s.draws.shape == (n, 18) and not s.draws.flags.writeable
            known = s.lo == s.hi
            assert s.lo[known].tobytes() == problem.statistic(s.draws[known]).tobytes()
            exact = problem.statistic(s.draws)
            assert np.all(s.lo <= exact) and np.all(exact <= s.hi)


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

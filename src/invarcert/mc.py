"""Monte-Carlo certification: the lower-bound, upper-bound and inverse
procedures on one two-sample core, plus smoothed prediction with abstention.

This module owns the reduced problem, ``RotationCertProblem``: two Gaussian
means and one factor F of their shared covariance F F^T, plus the
``LikelihoodStatistic`` that compares them.  Every draw goes through F.

One seed rule serves all three procedures: child c of
``SeedSequence(seed).spawn(3)`` draws around (perturbed, clean,
perturbed)[c].  Each procedure reads a threshold sample (n2 draws) from one
child and a count sample (n3 draws) from the next: the lower and the upper
bound read children 1-2, the inverse reads children 0-1.  The pair is drawn
once and kept in the problem's ``statistic_samples``, so both stages of a
multi-class certificate, the lower one being the tight certificate itself,
read the same draws.  A p_min grid passes the inverse procedure one dict
for all its cells: the pair of standard normals behind the draws is drawn
into it once, and each cell maps it through its own factor and means, so
every cell reads the draws it would read alone at the grid's seed.  Every
procedure cuts its pair with one tie-aware function, ``_cut``, and both
order-statistic indices come from one cached binomial search.

A cut reads only the n_star-th threshold value kappa and how the count
sample orders against it.  Drawing evaluates nothing: each kept row starts
as its statistic's ``bracket``, bounds on its value, and ``_cut`` evaluates
the exact statistic, in one call, only on the threshold rows that can hold
kappa's place and the count rows whose bounds hold kappa; later cuts of the
same pair reuse those values.  Both statistics bracket cheaply: SO(2)'s
from a table of log I0, SO(3)'s from convexity bounds on its matrix Fisher
integral, so a cut of a noisy problem evaluates a few percent of its rows.
Where every value is rounding noise (an exact rotation, X' = X), every
bracket holds kappa and the first cut evaluates the whole sample in one
call; the tight and multi-class certificates of ``tight`` return the orbit
floor on such orbit members without drawing, so only the inverse procedure
and direct callers reach that case.  Either way kappa and every count are
byte for byte those of evaluating every row.

The lower and the upper bound take the floor or ceiling that their caller
knows without drawing (``tight``'s orbit bounds) and report the better of
it and the Monte-Carlo bound.  Where the brackets alone show that the count
cannot beat it, a lower cut reads kappa but evaluates no count row, and an
upper cut evaluates no row at all; the reported value is still the one of
the full count.  This holds only while every row of the pair has a finite
bracket or a known value, so a row the evaluator may refuse always reaches
it; a bounded row whose value cannot reach the output goes unchecked.

A certificate combines a binomial confidence bound on the clean prediction
probability, a distribution-free order-statistic bound on the likelihood-ratio
threshold, and a final binomial bound, at significances (alpha, alpha/2,
alpha/3).  The first stage is ``smooth_predict``'s: the procedures here take
its p_lower (or any caller's) as an argument.  By the union bound all three
hold jointly with probability at least 1 - 11 alpha / 6, not 1 - alpha; the
reported ``confidence`` still reads 1 - alpha.  Sharing draws needs no
independence between the lower and the upper bound: each keeps its own
coverage, and the union bound charges a multi-class verdict alpha/2 +
alpha/3 for each stage, plus p_lower's alpha.
"""

from __future__ import annotations

import functools
import math
import numbers
from dataclasses import dataclass, field
from typing import Callable, Protocol

import numpy as np

from .geometry import PointCloud
from .numerics import (
    NumericalFailure,
    binomial_log_cdf_all,
    check_sigma,
    clamp_probability,
    clopper_pearson_lower,
    clopper_pearson_upper,
    sample_gaussian,
)
from .orbit import CertificateOutcome, blackbox_radius

ABSTAIN = -1


@dataclass(frozen=True)
class McConfig:
    """Sample budgets of the threshold stage (n2) and the final count (n3),
    and the overall significance level alpha."""

    n2: int = 10000
    n3: int = 10000
    alpha: float = 0.001

    def __post_init__(self):
        _check_count("McConfig", self.n2, 100)
        _check_count("McConfig", self.n3, 100)
        _check_alpha("McConfig", self.alpha)

    @property
    def confidences(self) -> tuple[float, float, float]:
        return (1.0 - self.alpha, 1.0 - self.alpha / 2.0, 1.0 - self.alpha / 3.0)


def _check_count(caller: str, n: int, floor: int) -> None:
    if not isinstance(n, numbers.Integral) or n < floor:  # numpy integers pass
        raise ValueError(f"{caller}: sample counts must be integers >= {floor} (got {n!r})")


def _check_alpha(caller: str, alpha: float) -> None:
    if not 0.0 < alpha < 0.5:  # NaN fails too
        raise ValueError(f"{caller}: alpha must lie in (0, 0.5) (got {alpha})")


def _unbounded(samples: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """The bracket that knows nothing: (-inf, inf) on every row, as two
    distinct arrays, so that evaluating a row can pin it."""
    n = samples.shape[0]
    return np.full(n, -np.inf), np.full(n, np.inf)


@dataclass(frozen=True)
class LikelihoodStatistic:
    """Deterministic map from sampled vectors to log likelihood-ratio values.

    ``bracket`` maps the same (n, dim) samples to per-row bounds (lo, hi),
    two distinct writable arrays that contain the very float the evaluator
    returns for that row, and never NaN; lo == hi pins the value.  The
    engine evaluates only the rows whose bracket can straddle its
    threshold, so an evaluator's own checks run on those rows only.  The
    default, (-inf, inf), has every row evaluated on the first cut of a
    sample.
    """

    dim: int
    evaluator: Callable[[np.ndarray], np.ndarray]
    bracket: Callable[[np.ndarray], tuple[np.ndarray, np.ndarray]] = _unbounded

    def __call__(self, samples: np.ndarray) -> np.ndarray:
        samples = np.atleast_2d(np.asarray(samples, dtype=float))
        if samples.shape[1] != self.dim:
            raise ValueError("LikelihoodStatistic: sample dimension mismatch")
        return self.evaluator(samples)


@dataclass(frozen=True)
class RotationCertProblem:
    """Reduced Gaussian pair (perturbed vs clean) behind a tight certificate:
    two means sharing one covariance F F^T, given by its dim x k factor F,
    and the likelihood-ratio statistic that compares them.  Every draw from
    either mean is the mean plus F times k standard normals.
    ``statistic_samples`` keeps the sample pair of the latest (n2, n3, seed,
    first child) any procedure drew on it; a new key replaces it.  A mean or
    factor entry that is not finite raises NumericalFailure naming sigma."""

    mean_perturbed: np.ndarray
    mean_clean: np.ndarray
    factor: np.ndarray
    sigma: float
    statistic: LikelihoodStatistic
    statistic_samples: dict = field(default_factory=dict, init=False, repr=False, compare=False)

    def __post_init__(self):
        self.check_finite(self.sigma, self.mean_perturbed, self.mean_clean, self.factor)

    @staticmethod
    def check_finite(sigma: float, *entries: np.ndarray) -> None:
        """Raise NumericalFailure naming sigma unless every entry is finite."""
        if not all(np.isfinite(e).all() for e in entries):
            raise NumericalFailure(f"reduced problem at sigma={sigma!r}: an entry is not finite")


class BaseClassifier(Protocol):
    """Deterministic labeler of point clouds, batched over the leading axis."""

    def predict_batch(self, batch: np.ndarray) -> np.ndarray: ...


def smooth_predict(
    g: BaseClassifier,
    x: PointCloud,
    sigma: float,
    n: int,
    alpha: float,
    seed: int,
) -> tuple[int, float]:
    """Majority vote of g under n Gaussian input draws, with a Clopper-Pearson
    lower bound on the majority probability at confidence 1 - alpha; abstains
    when the bound is <= 1/2."""
    check_sigma(sigma, "smooth_predict")
    _check_count("smooth_predict", n, 1)
    _check_alpha("smooth_predict", alpha)
    rng = np.random.default_rng(seed)
    counts: dict[int, int] = {}
    chunk = max(1, int(2_000_000 // x.data.size))
    remaining = n
    while remaining > 0:
        m = min(chunk, remaining)
        remaining -= m
        batch = rng.standard_normal((m,) + x.data.shape)
        batch *= sigma
        batch += x.data
        labels = np.asarray(g.predict_batch(batch))
        values, freq = np.unique(labels, return_counts=True)
        for v, f in zip(values, freq):
            counts[int(v)] = counts.get(int(v), 0) + int(f)
    label = max(sorted(counts), key=counts.get)
    p_lower = clopper_pearson_lower(counts[label], n, 1.0 - alpha)
    if p_lower <= 0.5:
        return ABSTAIN, p_lower
    return label, p_lower


# Pure in its arguments, and pmin_grid asks every cell for the same index, so
# it is cached; it returns an int, never a mutable value.
@functools.lru_cache(maxsize=128)
def _count_below(trials: int, level: float, significance: float) -> int:
    """m = #{k : log Pr[Bin(trials, level) <= k] < log significance}.

    The log-CDF never decreases (``logaddexp.accumulate`` never does), so
    these k are the prefix 0..m-1, and both order-statistic indices read m.
    """
    logcdf = binomial_log_cdf_all(trials, level)
    return int(np.searchsorted(logcdf, math.log(significance), side="left"))


def lower_quantile_index(trials: int, level: float, significance: float) -> int | None:
    """Largest 1-based index n with Pr[Bin(trials, level) <= n] < significance.

    The n-th ascending order statistic of an i.i.d. sample is then a lower
    confidence bound on the level-quantile.  None when no index qualifies.
    """
    n = _count_below(trials, level, significance) - 1
    return n if n >= 1 else None


def upper_quantile_index(trials: int, level: float, significance: float) -> int | None:
    """Smallest 1-based index n with Pr[Bin(trials, level) >= n] < significance.

    The n-th ascending order statistic is then an upper confidence bound on
    the level-quantile.  None when no index qualifies.
    """
    # Pr[X >= n] = Pr[n' <= trials - n] for n' ~ Bin(trials, 1 - level)
    n = int(trials) + 1 - _count_below(trials, 1.0 - level, significance)
    return max(n, 1) if n <= trials else None


def _statistic_values(problem, samples: np.ndarray) -> np.ndarray:
    """The statistic on ``samples``; its NumericalFailure, or a NaN value,
    raises one that names the problem's sigma."""
    where = f"reduced problem at sigma={problem.sigma!r}"
    try:
        values = np.asarray(problem.statistic(samples), dtype=float)
    except NumericalFailure as failure:
        raise NumericalFailure(f"{where}: {failure}") from failure
    bad = np.isnan(values)
    if np.any(bad):
        raise NumericalFailure(
            f"{where}: NaN likelihood-ratio statistic: "
            f"{int(bad.sum())}/{samples.shape[0]} samples, "
            f"|mean_clean|={np.linalg.norm(problem.mean_clean):.6g}, "
            f"|mean_perturbed|={np.linalg.norm(problem.mean_perturbed):.6g}, "
            f"|factor|={np.linalg.norm(problem.factor):.6g}"
        )
    return values


class _Sample:
    """One kept statistic sample: the read-only draws and, per row, bounds
    lo <= value <= hi on the statistic, from its bracket, with lo == hi
    where the value is known.  ``bounded`` says whether every row has a
    finite bracket or a known value: set when drawn, and when evaluated
    whole.  Drawing evaluates nothing; ``refine`` evaluates rows as cuts
    need them, and a sample evaluated whole in one call keeps its values as
    one read-only array (lo is hi) and drops its draws, which no later cut
    reads.  Holds no reference to its problem, so a dropped problem is
    freed at once."""

    def __init__(self, problem, draws: np.ndarray):
        self.draws = draws
        self.draws.setflags(write=False)
        self.lo, self.hi = problem.statistic.bracket(self.draws)
        self.bounded = bool(np.isfinite(self.lo).all() and np.isfinite(self.hi).all())

    def refine(self, problem, rows: np.ndarray) -> None:
        """Evaluate the statistic, in one call, on the rows of the mask
        ``rows`` whose value is not known yet."""
        todo = np.flatnonzero(rows & (self.lo != self.hi))
        if todo.size == rows.size:  # every row (SO(3), an exact rotation): no copy of the draws
            self.lo = self.hi = _statistic_values(problem, self.draws)
            self.lo.setflags(write=False)
            self.draws = None
            self.bounded = True
        elif todo.size:
            values = _statistic_values(problem, self.draws.take(todo, axis=0))
            self.lo[todo] = self.hi[todo] = values


def _cut(
    problem, threshold: _Sample, count: _Sample, n_star: int, below: bool,
    settled: Callable[[int], bool] | None = None,
) -> tuple[float | None, int | None]:
    """kappa is the n_star-th smallest statistic value of the threshold
    sample; count is how many count-sample values fall strictly below kappa
    (or above it), plus kappa's tie group at the share that lies on the same
    side of the threshold.

    kappa lies between k_lo and k_hi, the n_star-th smallest lower and upper
    bounds.  Threshold rows whose bracket meets [k_lo, k_hi] are evaluated,
    and kappa is read among them after the rows wholly below k_lo; count
    rows are evaluated where their bracket holds kappa.  Both read exactly
    the values that evaluating every row would give (no statistic returns
    -0.0, so equal values have equal bits).

    The share is the fraction of kappa's tie group in the threshold sample
    at or below position n_star.  For continuous statistics ties never occur
    and the share is irrelevant; when the law has an atom (e.g. a
    rank-deficient problem makes the statistic constant), counting the full
    tie group would overshoot the Neyman-Pearson value, so tied samples are
    counted at this share, mimicking the randomized tie-break of the optimal
    classifier.

    ``settled``, when given, is asked whether a bound on the count read
    from the brackets alone already decides the caller's result; if so,
    the count is None and no count row is evaluated.  Below, it gets the
    upper bound #(count.lo <= kappa), tie share included, after kappa.
    Above, kappa <= k_hi, so it gets the lower bound #(count.lo > k_hi)
    before any row is evaluated, and kappa is None too.  It is asked only
    where every row of both samples is bounded (see ``_Sample``), so a row
    the evaluator may refuse always reaches it.
    """
    k_lo = np.partition(threshold.lo, n_star - 1)[n_star - 1]
    k_hi = np.partition(threshold.hi, n_star - 1)[n_star - 1]
    lazy = settled is not None and threshold.bounded and count.bounded
    if lazy and not below and settled(int(np.count_nonzero(count.lo > k_hi))):
        return None, None
    below_all = int(np.count_nonzero(threshold.hi < k_lo))
    middle = (threshold.lo <= k_hi) & (threshold.hi >= k_lo)
    threshold.refine(problem, middle)
    values = np.sort(threshold.lo[middle])
    kappa = float(values[n_star - 1 - below_all])
    lo = below_all + int(np.searchsorted(values, kappa, side="left"))
    hi = below_all + int(np.searchsorted(values, kappa, side="right"))
    share = (n_star - lo) / (hi - lo)
    if lazy and below and settled(int(np.count_nonzero(count.lo <= kappa))):
        return kappa, None
    count.refine(problem, (count.lo <= kappa) & (count.hi >= kappa))
    ties = int(np.count_nonzero(count.lo == kappa))
    if below:
        return kappa, int(np.count_nonzero(count.hi < kappa)) + math.floor(share * ties)
    return kappa, int(np.count_nonzero(count.lo > kappa)) + math.floor((1.0 - share) * ties)


def _samples(
    problem, mc: McConfig, seed: int, first: int, normals: dict | None = None
) -> tuple[_Sample, _Sample]:
    """The pair a procedure cuts, by the module's seed rule: the threshold
    sample of mc.n2 draws from child ``first`` and the count sample of mc.n3
    draws from child ``first + 1``.  Drawn on the first call for (n2, n3,
    seed, first) and kept in the problem's ``statistic_samples`` until
    another key is drawn.

    ``normals`` is a dict that a caller keeps across problems read at one
    seed (a p_min grid's cells).  The pair of standard normals behind the
    draws is then drawn into it on the first call, read-only, and every
    problem maps it through its own factor and means with
    ``sample_gaussian``'s arithmetic: its draws are bit for bit those it
    would draw alone.  A new key, or another factor width, replaces it."""
    key = (mc.n2, mc.n3, seed, first)
    if key not in problem.statistic_samples:
        means = (problem.mean_perturbed, problem.mean_clean, problem.mean_perturbed)[first:]
        counts = (mc.n2, mc.n3)
        shared = (key, problem.factor.shape[1])
        if normals is None or shared not in normals:
            # a child does not depend on how many are spawned: spawn(2) gives
            # the first two children of spawn(3)
            children = np.random.SeedSequence(seed).spawn(first + 2)[first:]
            rngs = [np.random.default_rng(child) for child in children]
            if normals is not None:
                normals.clear()
                normals[shared] = tuple(
                    rng.standard_normal((n, shared[1])) for rng, n in zip(rngs, counts)
                )
                for standard in normals[shared]:
                    standard.setflags(write=False)
        pair = []
        for k, n in enumerate(counts):
            if normals is None:
                draws = sample_gaussian(means[k], n, rngs[k], problem.factor)
            else:  # sample_gaussian's arithmetic on the shared normals
                draws = normals[shared][k] @ problem.factor.T
                # a column at a time: 3x faster than the broadcast on (n, 4)
                # draws, but slower on 3-D's wide ones, so sample_gaussian keeps it
                for j, m in enumerate(means[k]):
                    draws[:, j] += m
            pair.append(_Sample(problem, draws))
        problem.statistic_samples.clear()
        problem.statistic_samples[key] = tuple(pair)
    return problem.statistic_samples[key]


def prob_certify_reduced(
    problem,
    mc: McConfig,
    seed: int,
    *,
    p_lower: float,
    floor: float = 0.0,
) -> CertificateOutcome:
    """Lower-bound the worst-case prediction probability of the reduced
    Gaussian pair, given a lower bound p_lower on the clean prediction
    probability (``smooth_predict`` computes one from a classifier).

    Threshold selection takes the largest ascending order statistic of the
    clean-distribution sample whose lower binomial tail at rate p_lower stays
    below alpha/2; the final count is bounded at confidence 1 - alpha/3.  The
    significance ladder keeps the first stage's alpha, so the reported
    confidence stays conservative.  Every outcome carries the note
    "p-lower-supplied".

    ``floor``, a lower bound that needs no draws (``tight``'s orbit
    floor), makes the bound max(Monte-Carlo bound, floor), noted
    "orbit-floor" where the floor is the larger; the count rows are not
    evaluated where their brackets already keep the Monte-Carlo bound below
    it (see ``_cut``).
    """
    notes = ["p-lower-supplied"]
    p_eff, clamped = clamp_probability(p_lower)
    if clamped:
        notes.append("p-lower-clamped")
    n_star = lower_quantile_index(mc.n2, p_eff, mc.alpha / 2.0)
    confidence = 1.0 - mc.alpha / 3.0
    kappa, bound = None, 0.0
    if n_star is None:
        notes.append("threshold-undetermined")
    else:
        kappa, count = _cut(
            problem, *_samples(problem, mc, seed, first=1), n_star, below=True,
            settled=lambda most: clopper_pearson_lower(most, mc.n3, confidence) < floor,
        )
        # no count: its bound lies below the floor
        bound = -math.inf if count is None else clopper_pearson_lower(count, mc.n3, confidence)
    if bound < floor:
        bound = floor
        notes.append("orbit-floor")
    return CertificateOutcome(
        certified=bound > 0.5,
        bound_value=bound,
        radius=blackbox_radius(p_eff, problem.sigma),
        p_lower=p_eff,
        confidence=1.0 - mc.alpha,
        method="tight-reduced",
        kappa_log=kappa,
        confidences=mc.confidences,
        notes=tuple(notes),
    )


def prob_certify_upper_reduced(
    problem,
    mc: McConfig,
    seed: int,
    *,
    p_upper: float,
    ceiling: float = 1.0,
) -> float:
    """Upper-bound the perturbed probability of a class whose clean
    probability is at most p_upper.

    Mirrors the lower-bound procedure with the statistic counted in the
    "greater or equal" direction.  The threshold is still bounded from below
    (at quantile level 1 - p_upper), which inflates the tail count and keeps
    the certificate sound; the Monte-Carlo bound is the vacuous 1.0 when no
    order statistic qualifies.

    ``ceiling``, an upper bound that needs no draws (``tight``'s orbit
    ceiling), makes the result min(Monte-Carlo bound, ceiling); no row is
    evaluated where the brackets already hold the Monte-Carlo bound at the
    ceiling (see ``_cut``).
    """
    p_eff, _ = clamp_probability(p_upper)
    n_star = lower_quantile_index(mc.n2, 1.0 - p_eff, mc.alpha / 2.0)
    if n_star is None:
        return min(1.0, ceiling)
    confidence = 1.0 - mc.alpha / 3.0
    _, count = _cut(
        problem, *_samples(problem, mc, seed, first=1), n_star, below=False,
        settled=lambda least: clopper_pearson_upper(least, mc.n3, confidence) >= ceiling,
    )
    if count is None:
        return ceiling
    return min(clopper_pearson_upper(count, mc.n3, confidence), ceiling)


def inverse_certify_reduced(
    problem, mc: McConfig, seed: int, *, normals: dict | None = None
) -> float:
    """Upper bound on the smallest certifiable clean prediction probability.

    The threshold is an upper confidence bound on the median of the statistic
    under the perturbed distribution (significance alpha); the clean-side
    probability of falling below it is then upper-bounded at confidence
    1 - alpha/2.  Returns the vacuous 1.0 when the median index is undefined.
    ``normals``, a dict kept across calls at one seed, shares the standard
    normals behind the draws between problems (see ``_samples``); the value
    is the same with or without it.
    """
    n_star = upper_quantile_index(mc.n2, 0.5, mc.alpha)
    if n_star is None:
        return 1.0
    pair = _samples(problem, mc, seed, first=0, normals=normals)
    _, count = _cut(problem, *pair, n_star, below=True)
    p_min = clopper_pearson_upper(count, mc.n3, 1.0 - mc.alpha / 2.0)
    # any certificate needs p > 1/2, so 1/2 is a free lower bound on p_min
    return min(max(p_min, 0.5), 1.0)

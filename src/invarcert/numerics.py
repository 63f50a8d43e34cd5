"""Special functions, Gaussian sampling and binomial confidence machinery.

Everything here is pure and thread-safe apart from Gaussian sampling, which
draws from a generator the caller owns.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np
from scipy import special

# Relative tolerance for negative eigenvalues of nominally-PSD covariances.
_PSD_REL_TOL = 1e-9

# Clamp window applied by certificate callers before quantile inversion.
PROB_CLAMP = 1e-12


class NumericalFailure(RuntimeError):
    """Raised when a computation produces NaN or leaves its valid domain."""


def std_normal_cdf(x):
    """Standard normal CDF Phi(x).  Accepts scalars or arrays."""
    x = np.asarray(x, dtype=float)
    if not np.all(np.isfinite(x)):
        raise ValueError("std_normal_cdf: input must be finite")
    out = special.ndtr(x)
    return float(out) if out.ndim == 0 else out


def std_normal_quantile(p):
    """Inverse standard normal CDF.  Rejects p outside the open interval (0,1)."""
    p = np.asarray(p, dtype=float)
    if np.any(p <= 0.0) or np.any(p >= 1.0):
        raise ValueError("std_normal_quantile: p must lie strictly in (0,1)")
    out = special.ndtri(p)
    return float(out) if out.ndim == 0 else out


def clamp_probability(p: float) -> tuple[float, bool]:
    """Clamp p into [PROB_CLAMP, 1-PROB_CLAMP]; returns (value, was_clamped)."""
    if p < PROB_CLAMP:
        return PROB_CLAMP, True
    if p > 1.0 - PROB_CLAMP:
        return 1.0 - PROB_CLAMP, True
    return p, False


def log_bessel_i0(x):
    """log I0(x) for x >= 0, as log(i0e(x)) + x (no overflow).

    Accepts scalars or arrays.
    """
    x = np.asarray(x, dtype=float)
    if np.any(x < 0.0) or not np.all(np.isfinite(x)):
        raise ValueError("log_bessel_i0: x must be finite and >= 0")
    out = np.log(special.i0e(x)) + x
    return float(out) if out.ndim == 0 else out


@dataclass(frozen=True)
class GaussianSpec:
    """Mean and symmetric PSD covariance of a multivariate normal.

    Rank-deficient covariances are allowed; sampling uses a symmetric
    eigendecomposition with negative eigenvalues clipped to zero, so the
    boundary cases (zero perturbation, dependent projection rows) work.
    """

    mean: np.ndarray
    covariance: np.ndarray

    def __post_init__(self):
        mean = np.asarray(self.mean, dtype=float)
        cov = np.asarray(self.covariance, dtype=float)
        object.__setattr__(self, "mean", mean)
        object.__setattr__(self, "covariance", cov)
        if mean.ndim != 1 or cov.shape != (mean.size, mean.size):
            raise ValueError("GaussianSpec: dimension mismatch")
        if not np.allclose(cov, cov.T, atol=1e-10, rtol=0.0):
            raise ValueError("GaussianSpec: covariance not symmetric")

    @property
    def dim(self) -> int:
        return self.mean.size

    def factor(self) -> np.ndarray:
        """Matrix F with F F^T equal to the clipped-PSD covariance."""
        eigvals, eigvecs = np.linalg.eigh(0.5 * (self.covariance + self.covariance.T))
        top = float(eigvals[-1]) if eigvals.size else 0.0
        if top > 0.0 and float(eigvals[0]) < -_PSD_REL_TOL * top:
            raise ValueError("GaussianSpec: covariance has significantly negative eigenvalues")
        return eigvecs * np.sqrt(np.clip(eigvals, 0.0, None))


def sample_gaussian(spec: GaussianSpec, count: int, rng: np.random.Generator) -> np.ndarray:
    """Draw ``count`` samples from N(mean, covariance) with the caller's
    generator."""
    if count < 1:
        raise ValueError("sample_gaussian: count must be >= 1")
    normals = rng.standard_normal((count, spec.dim))
    return spec.mean + normals @ spec.factor().T


@dataclass(frozen=True)
class BinomialBoundRequest:
    """Inputs of a one-sided Clopper-Pearson bound."""

    successes: int
    trials: int
    confidence: float

    def __post_init__(self):
        if self.trials < 1:
            raise ValueError("BinomialBoundRequest: trials must be >= 1")
        if not 0 <= self.successes <= self.trials:
            raise ValueError("BinomialBoundRequest: successes outside [0, trials]")
        if not 0.0 < self.confidence < 1.0:
            raise ValueError("BinomialBoundRequest: confidence outside (0,1)")


def clopper_pearson_lower(req: BinomialBoundRequest) -> float:
    """One-sided lower confidence bound on a binomial proportion.

    Coverage is >= req.confidence; the bound is the Beta(k, n-k+1) quantile
    at level 1 - confidence (0 when k = 0).
    """
    k, n = req.successes, req.trials
    if k == 0:
        return 0.0
    return float(special.betaincinv(k, n - k + 1, 1.0 - req.confidence))


def clopper_pearson_upper(req: BinomialBoundRequest) -> float:
    """One-sided upper confidence bound, mirror of clopper_pearson_lower."""
    k, n = req.successes, req.trials
    if k == n:
        return 1.0
    return float(special.betaincinv(k + 1, n - k, req.confidence))


def _binom_logpmf(k: np.ndarray, n: int, p: float) -> np.ndarray:
    return (
        special.gammaln(n + 1)
        - special.gammaln(k + 1)
        - special.gammaln(n - k + 1)
        + k * np.log(p)
        + (n - k) * np.log1p(-p)
    )


def binomial_log_cdf_all(n: int, p: float) -> np.ndarray:
    """log Pr[X <= k] for k = 0..n under Bin(n, p), by log-gamma summation."""
    if n < 0 or not 0.0 <= p <= 1.0:
        raise ValueError("binomial_log_cdf_all: need n >= 0 and p in [0, 1]")
    if p <= 0.0:
        return np.zeros(n + 1)
    if p >= 1.0:
        out = np.full(n + 1, -np.inf)
        out[n] = 0.0
        return out
    logpmf = _binom_logpmf(np.arange(n + 1, dtype=float), n, p)
    return np.minimum(np.logaddexp.accumulate(logpmf), 0.0)

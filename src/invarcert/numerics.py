"""Special functions, Gaussian sampling and binomial confidence machinery.

Plain functions of plain arguments.  Gaussian sampling takes a covariance
factor from ``psd_factor``, so a caller drawing many times from one
covariance factors it once.  Everything here is pure and thread-safe apart
from Gaussian sampling, which draws from a generator the caller owns.
"""

from __future__ import annotations

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
    if not np.all((p > 0.0) & (p < 1.0)):  # NaN fails too
        raise ValueError("std_normal_quantile: p must lie strictly in (0,1)")
    out = special.ndtri(p)
    return float(out) if out.ndim == 0 else out


def check_sigma(sigma: float, where: str) -> None:
    """Reject a smoothing scale outside 0 < sigma < inf (NaN included)."""
    if not 0.0 < sigma < np.inf:
        raise ValueError(f"{where}: sigma must be finite and > 0")


def clamp_probability(p: float) -> tuple[float, bool]:
    """Clamp a probability into [PROB_CLAMP, 1-PROB_CLAMP]; returns (value,
    was_clamped).  Raises ValueError for p outside [0, 1], NaN included."""
    if not 0.0 <= p <= 1.0:
        raise ValueError(f"probability must lie in [0, 1] (got {p})")
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


def psd_factor(covariance) -> np.ndarray:
    """Matrix F with F F^T equal to the clipped-PSD part of a symmetric
    covariance.

    Rank-deficient covariances are allowed; the factor comes from a symmetric
    eigendecomposition with negative eigenvalues clipped to zero, so the
    boundary cases (zero perturbation, dependent projection rows) work.
    Raises ValueError for a non-square or asymmetric matrix, or one with
    significantly negative eigenvalues.
    """
    cov = np.asarray(covariance, dtype=float)
    if cov.ndim != 2 or cov.shape[0] != cov.shape[1]:
        raise ValueError("psd_factor: covariance must be a square matrix")
    if not np.allclose(cov, cov.T, atol=1e-10, rtol=0.0):
        raise ValueError("psd_factor: covariance not symmetric")
    eigvals, eigvecs = np.linalg.eigh(0.5 * (cov + cov.T))
    top = float(eigvals[-1]) if eigvals.size else 0.0
    if top > 0.0 and float(eigvals[0]) < -_PSD_REL_TOL * top:
        raise ValueError("psd_factor: covariance has significantly negative eigenvalues")
    return eigvecs * np.sqrt(np.clip(eigvals, 0.0, None))


def sample_gaussian(mean, count: int, rng: np.random.Generator,
                    factor: np.ndarray) -> np.ndarray:
    """Draw ``count`` samples from N(mean, factor factor^T) with the caller's
    generator; ``factor`` is typically ``psd_factor(covariance)``."""
    mean = np.asarray(mean, dtype=float)
    if mean.ndim != 1 or factor.shape != (mean.size, mean.size):
        raise ValueError("sample_gaussian: dimension mismatch")
    if count < 1:
        raise ValueError("sample_gaussian: count must be >= 1")
    normals = rng.standard_normal((count, mean.size))
    return mean + normals @ factor.T


def _check_binomial(successes: int, trials: int, confidence: float) -> None:
    if trials < 1:
        raise ValueError("clopper_pearson: trials must be >= 1")
    if not 0 <= successes <= trials:
        raise ValueError("clopper_pearson: successes outside [0, trials]")
    if not 0.0 < confidence < 1.0:
        raise ValueError("clopper_pearson: confidence outside (0,1)")


def clopper_pearson_lower(successes: int, trials: int, confidence: float) -> float:
    """One-sided lower confidence bound on a binomial proportion.

    Coverage is >= confidence; the bound is the Beta(k, n-k+1) quantile at
    level 1 - confidence (0 when k = 0).
    """
    _check_binomial(successes, trials, confidence)
    if successes == 0:
        return 0.0
    return float(special.betaincinv(successes, trials - successes + 1, 1.0 - confidence))


def clopper_pearson_upper(successes: int, trials: int, confidence: float) -> float:
    """One-sided upper confidence bound, mirror of clopper_pearson_lower."""
    _check_binomial(successes, trials, confidence)
    if successes == trials:
        return 1.0
    return float(special.betaincinv(successes + 1, trials - successes, confidence))


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

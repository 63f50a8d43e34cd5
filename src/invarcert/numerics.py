"""Special functions, Gaussian sampling and binomial confidence machinery.

Plain functions of plain arguments.  Gaussian sampling takes a covariance
factor from ``psd_factor``, so a caller drawing many times from one
covariance factors it once.  Everything here is pure and thread-safe apart
from Gaussian sampling, which draws from a generator the caller owns.
"""

from __future__ import annotations

import functools

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


# The bound table of log_bessel_i0 splits [2^-60, 2^40] into buckets of the
# floats sharing their exponent and top _BOUND_BITS mantissa bits.
_BOUND_BITS = 10
_BOUND_EXPONENTS = (-60, 40)
_BOUND_SHIFT = 52 - _BOUND_BITS
_BOUND_FIRST = int(np.float64(2.0 ** _BOUND_EXPONENTS[0]).view(np.int64)) >> _BOUND_SHIFT
_BOUND_TOP = 2.0 ** _BOUND_EXPONENTS[1]


@functools.cache
def _log_i0_edges() -> tuple[np.ndarray, np.ndarray]:
    """log_bessel_i0 at 0 and at every bucket edge from 2^-60 to 2^40 (102402
    values, built once), as two read-only views: the lower edge of bucket
    k - 1 at index k (0 below 2^-60), and its upper edge."""
    binades = np.arange(*_BOUND_EXPONENTS)
    mantissas = 1.0 + np.arange(2**_BOUND_BITS) / 2**_BOUND_BITS
    edges = np.concatenate(
        [[0.0], np.ldexp(mantissas[None, :], binades[:, None]).ravel(), [_BOUND_TOP]]
    )
    table = log_bessel_i0(edges)
    table.setflags(write=False)
    return table[:-1], table[1:]


def log_bessel_i0_bounds(x: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """log_bessel_i0 at the table edges around each x >= 0 of a float array,
    one at or below x and one above it; (-inf, inf) where x is not below 2^40
    (NaN included).

    log I0 increases, so these enclose log_bessel_i0(x) up to its rounding
    noise, which callers add: below x = 2^-10 the cancellation in
    log(i0e(x)) + x leaves a few eps absolute (up to 6 eps measured between
    the edges); above it the noise stays inside the bucket.
    """
    lower, upper = _log_i0_edges()
    index = (x.view(np.int64) >> _BOUND_SHIFT) - (_BOUND_FIRST - 1)
    np.clip(index, 0, lower.size - 1, out=index)
    lo, hi = lower.take(index), upper.take(index)
    outside = ~(x < _BOUND_TOP)
    lo[outside] = -np.inf
    hi[outside] = np.inf
    return lo, hi


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
    out = normals @ factor.T
    out += mean
    return out


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

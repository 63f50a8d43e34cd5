"""Special functions, Gaussian sampling and binomial confidence machinery.

Plain functions of plain arguments.  Gaussian sampling takes a factor F of
the covariance F F^T, of any width, that the caller builds; no covariance is
formed or factored here.  Everything here is pure and thread-safe apart
from Gaussian sampling, which draws from a generator the caller owns.
"""

from __future__ import annotations

import functools

import numpy as np
from scipy import special

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


# The bound tables of log_bessel_i0 and of log i0e split [2^-60, 2^40] into
# buckets of the floats sharing their exponent and top _BOUND_BITS mantissa
# bits.
_BOUND_BITS = 10
_BOUND_EXPONENTS = (-60, 40)
_BOUND_SHIFT = 52 - _BOUND_BITS
_BOUND_FIRST = int(np.float64(2.0 ** _BOUND_EXPONENTS[0]).view(np.int64)) >> _BOUND_SHIFT


def _bound_edges() -> np.ndarray:
    """0 and every bucket edge from 2^-60 to 2^40, ascending (102402
    values)."""
    binades = np.arange(*_BOUND_EXPONENTS)
    mantissas = 1.0 + np.arange(2**_BOUND_BITS) / 2**_BOUND_BITS
    edges = np.ldexp(mantissas[None, :], binades[:, None]).ravel()
    return np.concatenate([[0.0], edges, [2.0 ** _BOUND_EXPONENTS[1]]])


def _bucket(x: np.ndarray) -> np.ndarray:
    """Index of the bucket edge at or below each x, unclipped: negative below
    2^-60, past the last bucket from 2^40 up and, as the bits are read
    unsigned, for a negative x (-0.0 included) or a NaN of either sign."""
    index = (x.view(np.uint64) >> _BOUND_SHIFT).view(np.int64)
    index -= _BOUND_FIRST - 1
    return index


def _bound_tables(values: np.ndarray, ends: tuple[float, float]) -> tuple[np.ndarray, ...]:
    """Read-only tables of ``values`` (at 0 and every bucket edge) at the
    lower edge of bucket k - 1 (0 below 2^-60) and at its upper edge, each
    ending in its sentinel of ``ends``, read by every index past the last."""
    tables = np.append(values[:-1], ends[0]), np.append(values[1:], ends[1])
    for t in tables:
        t.setflags(write=False)
    return tables


@functools.cache
def _log_i0_edges() -> tuple[np.ndarray, np.ndarray]:
    """Bound tables of log_bessel_i0 (built once), ended by -inf and inf."""
    return _bound_tables(log_bessel_i0(_bound_edges()), (-np.inf, np.inf))


def log_bessel_i0_bounds(x: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """log_bessel_i0 at the table edges around each x >= 0 of a float array,
    one at or below x and one above it; (-inf, inf) where x is negative
    (-0.0 included) or NaN or not below 2^40.

    log I0 increases, so these enclose log_bessel_i0(x) up to its rounding
    noise, which callers add: below x = 2^-10 the cancellation in
    log(i0e(x)) + x leaves a few eps absolute (up to 6 eps measured between
    the edges); above it the noise stays inside the bucket.
    """
    index = _bucket(x)
    return tuple(table.take(index, mode="clip") for table in _log_i0_edges())


@functools.cache
def _log_i0e_edges() -> tuple[np.ndarray, np.ndarray]:
    """Bound tables of log(i0e) (built once), ended by inf and -inf, taken
    directly, not as log I0 - x, which cancels at large x."""
    return _bound_tables(np.log(special.i0e(_bound_edges())), (np.inf, -np.inf))


def log_i0e_upper(x: np.ndarray) -> np.ndarray:
    """log(i0e) at the table edge at or below each x >= 0 of a float array,
    an upper bound on log(i0e(x)) because log i0e decreases; inf where x is
    negative (-0.0 included) or NaN or not below 2^40.  Callers add the few
    eps of rounding in each table entry."""
    return _log_i0e_edges()[0].take(_bucket(x), mode="clip")


def log_i0e_lower(x: np.ndarray) -> np.ndarray:
    """log(i0e) at the table edge above each x >= 0 of a float array, a
    lower bound on log(i0e(x)); -inf where x is negative (-0.0 included) or
    NaN or not below 2^40.  Callers add the few eps of rounding in each
    table entry."""
    return _log_i0e_edges()[1].take(_bucket(x), mode="clip")


def sample_gaussian(mean, count: int, rng: np.random.Generator,
                    factor: np.ndarray) -> np.ndarray:
    """Draw ``count`` samples from N(mean, F F^T) with the caller's generator,
    for a dim x k factor F: each row is mean + F w for k standard normals w,
    drawn as (count, k)."""
    mean = np.asarray(mean, dtype=float)
    if mean.ndim != 1 or factor.ndim != 2 or factor.shape[0] != mean.size:
        raise ValueError("sample_gaussian: dimension mismatch")
    if count < 1:
        raise ValueError("sample_gaussian: count must be >= 1")
    normals = rng.standard_normal((count, factor.shape[1]))
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
    k = np.arange(n + 1, dtype=float)
    logpmf = (special.gammaln(n + 1) - special.gammaln(k + 1) - special.gammaln(n - k + 1)
              + k * np.log(p) + (n - k) * np.log1p(-p))
    return np.minimum(np.logaddexp.accumulate(logpmf), 0.0)

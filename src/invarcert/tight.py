"""Tight gray-box certificates.

Translation admits a closed form.  Rotation and roto-translation reduce to a
pair of low-dimensional Gaussians (4-dim in 2D, 18-dim in 3D); this module
builds that reduced problem, with its likelihood-ratio statistic, and
assembles certificates from what the Monte-Carlo engine (``mc``) decides on
it.  Roto-translation is rotation after centering.  One private routine
checks and decides every multi-class certificate, for both
``certify_multiclass`` and ``certify_tight_and_multiclass``.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, replace

import numpy as np
from scipy import special

from . import mc as mc_engine
from .geometry import (
    EpsilonParams,
    GroupKind,
    PointCloud,
    adversarial_rotation_locus,
    center,
    check_same_shape,
    epsilon_params,
)
from .mc import LikelihoodStatistic, McConfig, RotationCertProblem
from .numerics import (
    NumericalFailure,
    check_sigma,
    clamp_probability,
    log_bessel_i0,
    log_bessel_i0_bounds,
    log_i0e_lower,
    log_i0e_upper,
    std_normal_cdf,
    std_normal_quantile,
)
from .orbit import (
    CertificateOutcome,
    blackbox_radius,
    project,
    project_translation,
    shift_bound,
    shift_outcome,
)


def so2_problem_from_params(
    norm_x: float, norm_delta: float, eps1: float, eps2: float, sigma: float
) -> RotationCertProblem:
    """Reduced 4-dim problem from the scalar parameters (|X|, |Delta|, eps1, eps2).

    Its covariance [[a I, B], [B^T, d I]], with B = [[b, c], [-c, b]], is
    never formed: the factor is its Cholesky factor pivoted on the clean
    block, [[u, v, s, 0], [-v, u, 0, s], [r, 0, 0, 0], [0, r, 0, 0]], where
    r = sqrt(d), (u, v) = (b, c) / r and s = |Delta_perp| / sigma, the part
    of Delta outside the complex span of X (s = |Delta| / sigma at X = 0).
    All entries depend only on ratios to sigma, so scaling (X, Delta, sigma)
    by a common factor leaves the problem unchanged.  A sigma^2 that
    underflows, or an entry that overflows, raises NumericalFailure.
    """
    check_sigma(sigma, "so2_problem_from_params")
    nx2 = norm_x * norm_x
    nd2 = norm_delta * norm_delta
    with np.errstate(all="ignore"):  # non-finite entries are refused by the problem
        # |X'|^2, <X', X>, eps2 and |X|^2, each over sigma^2
        a, b, c, d = np.array([2.0 * eps1 + nx2 + nd2, eps1 + nx2, eps2, nx2]) / (sigma * sigma)
        if norm_x > 0.0:
            # |Delta| along the complex span of X, by hypot: eps1^2 can overflow.
            # On pure rotations and scalings rounding can put h above |Delta|.
            h = np.hypot(eps1, eps2) / norm_x
            r, u, v = norm_x / sigma, (norm_x + eps1 / norm_x) / sigma, eps2 / norm_x / sigma
            s = np.sqrt(max((norm_delta - h) * (norm_delta + h), 0.0)) / sigma
        else:
            r = u = v = 0.0
            s = norm_delta / sigma
    factor = np.array(
        [[u, v, s, 0.0], [-v, u, 0.0, s], [r, 0.0, 0.0, 0.0], [0.0, r, 0.0, 0.0]]
    )
    mean_perturbed, mean_clean = np.array([a, 0.0, b, c]), np.array([b, -c, d, 0.0])
    return RotationCertProblem(mean_perturbed, mean_clean, factor, sigma, rho_so2())


def build_so2_problem(x: PointCloud, x_prime: PointCloud, sigma: float) -> RotationCertProblem:
    if x.dim != 2 or x_prime.dim != 2:
        raise ValueError("build_so2_problem: requires D = 2")
    eps = epsilon_params(x, x_prime.data - x.data)
    return so2_problem_from_params(eps.norm_x, eps.norm_delta, eps.eps1, eps.eps2, sigma)


def rho_so2() -> LikelihoodStatistic:
    """log I0(|q_{1:2}|) - log I0(|q_{3:4}|), the 2D log likelihood ratio.

    Its bracket bounds each row's value from a table of log I0, with no
    ``hypot`` and no Bessel call; the Monte-Carlo engine evaluates the exact
    statistic only on the rows whose bracket can straddle its threshold, so
    every result is byte for byte the one of evaluating all rows.
    """

    def evaluator(q: np.ndarray) -> np.ndarray:
        top = np.hypot(q[:, 0], q[:, 1])
        bot = np.hypot(q[:, 2], q[:, 3])
        return log_bessel_i0(top) - log_bessel_i0(bot)

    return LikelihoodStatistic(dim=4, evaluator=evaluator, bracket=_rho_so2_bracket)


# The bracket's rounding allowance, per unit of log I0(top) + log I0(bot) + 1.
# Below x = 2^-10 the float log(i0e(x)) + x is noisy by a few eps absolute:
# both sides with their table edges need up to 8.75 eps (measured).  Above
# it, hypot may lie 2 eps past the bucket of sqrt(x^2 + y^2), which moves
# log I0 by at most 2 eps x I1(x)/I0(x) <= 2.2 eps (log I0(x) + 1) per side,
# and the subtraction and the bounds' own sums round by under 2 eps more.
_RHO_MARGIN = 32.0 * np.finfo(float).eps


def _radius_bounds(q0: np.ndarray, q1: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """log I0 table edges around sqrt(q0^2 + q1^2): inf where the squares
    overflow, and where they underflow the radius is off by under 2^-537,
    inside the bottom bucket below 2^-60."""
    radius = np.square(q0)
    radius += np.square(q1)
    return log_bessel_i0_bounds(np.sqrt(radius, out=radius))


def _rho_so2_bracket(q: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """Bounds lo <= rho_so2(q) <= hi per row, infinite where a radius is not
    finite or lies beyond the log I0 table; in place, in the order of
    top_lo - bot_hi - m, top_hi - bot_lo + m, m = _RHO_MARGIN (top_hi + bot_hi + 1)."""
    with np.errstate(over="ignore"):
        lo, hi = _radius_bounds(q[:, 0], q[:, 1])
        bot_lo, margin = _radius_bounds(q[:, 2], q[:, 3])
    lo -= margin
    margin += hi
    margin += 1.0
    margin *= _RHO_MARGIN
    lo -= margin
    hi -= bot_lo
    hi += margin
    return lo, hi


# Gauss-Kronrod pair on [-1, 1] (QUADPACK qk15): the 15 Kronrod abscissae,
# listed from 1 down to 0, with their weights.  The odd entries are the
# 7-point Gauss-Legendre abscissae.
_K15_NODES = np.array([
    0.991455371120812639206854697526329, 0.949107912342758524526189684047851,
    0.864864423359769072789712788640926, 0.741531185599394439863864773280788,
    0.586087235467691130294144845693013, 0.405845151377397166906606412076961,
    0.207784955007898467600689403773245, 0.0,
])
_K15_WEIGHTS = np.array([
    0.022935322010529224963732008058970, 0.063092092629978553290700663189204,
    0.104790010322250183839876322541518, 0.140653259715525918745189590510238,
    0.169004726639267902826583426598550, 0.190350578064785409913256402421014,
    0.204432940075298892414161999234649, 0.209482141084727828012999174891714,
])
_G7_ON_K15 = np.zeros(8)
_G7_ON_K15[1::2] = np.polynomial.legendre.leggauss(7)[1][:4]
# The same pair on [0, 1]: nodes ascending, K15 weights, K15 minus G7 weights.
_UNIT_NODES = 0.5 + 0.5 * np.concatenate([-_K15_NODES[:-1], _K15_NODES[::-1]])
_UNIT_WEIGHTS = 0.5 * np.concatenate([_K15_WEIGHTS[:-1], _K15_WEIGHTS[::-1]])
_UNIT_ERROR_WEIGHTS = _UNIT_WEIGHTS - 0.5 * np.concatenate(
    [_G7_ON_K15[:-1], _G7_ON_K15[::-1]]
)
# Every call shares these tables, so none may write to them.
for _table in (_K15_NODES, _K15_WEIGHTS, _G7_ON_K15,
               _UNIT_NODES, _UNIT_WEIGHTS, _UNIT_ERROR_WEIGHTS):
    _table.setflags(write=False)
del _table

# Widest panel of the graded parts, in tau where p = h sinh(tau).
_MF_GRADED_WIDTH = 1.5
# Widest panel of the middle part, in units of the Gaussian scale 1/sqrt(2k).
_MF_MIDDLE_WIDTH = 2.0
# exp(-2k sin^2 p) is cut off where it falls to exp(-_MF_TAIL).
_MF_TAIL = 45.0
# Largest accepted error estimate of log beta (relative error of beta).
_MF_MAX_ERROR = 1e-6
# Matrices per batch of node evaluations, bounding the temporaries; a
# matrix's value does not depend on its batch.
_MF_CHUNK = 2048


def proper_singular_values(m: np.ndarray) -> np.ndarray:
    """Singular values s1 >= s2 >= |s3| of a batch of 3 x 3 matrices (n, 3, 3),
    with s3 carrying the sign of det m, so M = U diag(s) V^T with U, V in SO(3).
    The sign comes from ``slogdet``, which neither overflows nor underflows
    where det would."""
    s = np.linalg.svd(m, compute_uv=False)
    with np.errstate(divide="ignore"):   # log|det| of a singular matrix
        s[:, 2] *= np.linalg.slogdet(m)[0]
    return s


def _panels(count: int) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    """``count`` equal panels on [0, 1]: nodes, K15 weights and K15 - G7
    weights."""
    nodes = ((np.arange(count)[:, None] + _UNIT_NODES) / count).ravel()
    weights = np.tile(_UNIT_WEIGHTS, count) / count
    return nodes, weights, np.tile(_UNIT_ERROR_WEIGHTS, count) / count


def _graded(h: np.ndarray, tau_max: np.ndarray, count: int):
    """Nodes on [0, h sinh(tau_max)] graded geometrically toward 0 from scale
    h: p = h sinh(tau) on ``count`` equal tau panels.  Returns nodes and both
    weights."""
    t, w, dw = _panels(count)
    e = np.exp(tau_max * t)
    jac = 0.5 * h * tau_max * (e + 1.0 / e)
    return 0.5 * h * (e - 1.0 / e), jac * w, jac * dw


def _mf_sum(sin2, cos2, a, b, k, w, dw) -> tuple[np.ndarray, np.ndarray]:
    """K15 sum of sin 2p i0e(2a sin^2 p) i0e(2b cos^2 p) exp(-2k sin^2 p) and
    the per-panel |K15 - G7| differences, summed."""
    f = (
        2.0 * np.sqrt(sin2 * cos2)
        * special.i0e(2.0 * a * sin2) * special.i0e(2.0 * b * cos2) * np.exp(-2.0 * k * sin2)
    )
    diff = (f * dw).reshape(f.shape[0], -1, _UNIT_NODES.size).sum(axis=2)
    return np.sum(f * w, axis=1), np.abs(diff).sum(axis=1)


def _count_groups(span: np.ndarray, width: float) -> list[tuple[int, np.ndarray]]:
    """The panel counts that spread each row of ``span`` (n, 1) at most
    ``width`` over one panel, each with the indices of its rows."""
    counts = np.maximum(1.0, np.ceil(span[:, 0] / width))
    return [(int(count), np.flatnonzero(counts == count)) for count in np.unique(counts)]


def _log_mf_integral(s: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """log of int_0^pi 1/2 sin t i0e(a(1 - cos t)) i0e(b(1 + cos t)) exp(-k(1 - cos t)) dt
    for proper singular values s (n, 3), and the estimated error of that log.

    With t = 2p the integrand has a Bessel knee at p ~ 1/sqrt(2a) near 0, a
    Gaussian exp(-2k sin^2 p) of scale 1/sqrt(2k), and a Bessel knee at
    pi/2 - p ~ 1/sqrt(2b).  Three parts resolve them: [0, p1] graded toward
    0, equal panels on [p1, p2] for the Gaussian, and [p2, pi/2] graded
    toward pi/2 -- dropped when the Gaussian is cut off at p2 (theta = 2 p2
    is then about 9.5/sqrt(k)).  Each row sizes the panel counts of its parts
    from its own spreads, and rows with equal counts share one rule, so a
    row's value does not depend on the other rows of the batch.
    """
    with np.errstate(over="ignore"):   # overflowed sums are refused below
        a = 0.5 * (s[:, 0:1] - s[:, 1:2])
        b = 0.5 * (s[:, 0:1] + s[:, 1:2])
        k = np.maximum(s[:, 1:2] + s[:, 2:3], 0.0)
        bad = np.flatnonzero(~np.isfinite(a + b + k))   # a, b, k >= 0
    if bad.size:
        raise NumericalFailure(
            "so3_log_beta: singular-value sums overflow at proper singular values"
            f" {s[bad[0]].tolist()}"
        )
    with np.errstate(divide="ignore", over="ignore"):   # k = 0, or subnormal
        gauss = 1.0 / np.sqrt(2.0 * k)
        p1 = np.minimum(0.25 * math.pi, gauss)
        cutoff = np.arcsin(np.sqrt(np.minimum(1.0, 0.5 * _MF_TAIL / k)))
        near_h = np.minimum(p1, 1.0 / np.sqrt(2.0 * a))
        far_h = np.minimum(p1, 1.0 / np.sqrt(2.0 * b))
    cut = cutoff < 0.5 * math.pi
    p2 = np.where(cut, cutoff, 0.5 * math.pi - p1)
    value = np.zeros(s.shape[0])
    error = np.zeros(s.shape[0])

    tau = np.arcsinh(p1 / near_h)
    for count, rows in _count_groups(tau, _MF_GRADED_WIDTH):
        p, w, dw = _graded(near_h[rows], tau[rows], count)
        sin2 = np.sin(p) ** 2
        value[rows], error[rows] = _mf_sum(sin2, 1.0 - sin2, a[rows], b[rows], k[rows], w, dw)

    width = p2 - p1
    span = width / gauss
    for count, rows in _count_groups(span, _MF_MIDDLE_WIDTH):
        t, w, dw = _panels(count)
        p = p1[rows] + width[rows] * t
        mid_value, mid_error = _mf_sum(
            np.sin(p) ** 2, np.cos(p) ** 2, a[rows], b[rows], k[rows],
            width[rows] * w, width[rows] * dw,
        )
        value[rows] += mid_value
        error[rows] += mid_error

    whole = np.flatnonzero(~cut[:, 0])
    tau = np.arcsinh(p1[whole] / far_h[whole])
    for count, group in _count_groups(tau, _MF_GRADED_WIDTH):
        rows = whole[group]
        psi, w, dw = _graded(far_h[rows], tau[group], count)   # psi = pi/2 - p
        cos2 = np.sin(psi) ** 2
        far_value, far_error = _mf_sum(1.0 - cos2, cos2, a[rows], b[rows], k[rows], w, dw)
        value[rows] += far_value
        error[rows] += far_error
    with np.errstate(divide="ignore", invalid="ignore"):   # an underflowed integral is refused
        return np.log(value), np.where(value > 0.0, error / value, np.inf)


def so3_log_beta(m: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """log beta(M) = log(4 pi E_R exp(<R, M>)) over Haar-random R in SO(3), with
    its estimated absolute error, for a batch of 3 x 3 matrices (n, 3, 3).

    beta is the normalizing constant of the matrix Fisher distribution; after
    a proper SVD it is a one-dimensional integral (Wood 1993, Aust. J. Stat.;
    Lee 2018, IEEE TAC):
    log 4 pi + s1 + s2 + s3 + log int_0^pi 1/2 sin t i0e(a(1 - cos t))
    i0e(b(1 + cos t)) exp(-k(1 - cos t)) dt, with a = (s1 - s2)/2,
    b = (s1 + s2)/2 and k = s2 + s3.  Raises NumericalFailure when the
    error estimate exceeds _MF_MAX_ERROR.

    Pure: it reads only its argument and read-only module tables, so several
    threads may call it at once.
    """
    m = np.asarray(m, dtype=float)
    if not np.all(np.isfinite(m)):
        raise NumericalFailure("so3_log_beta: non-finite matrix entries")
    log_beta = np.empty(m.shape[0])
    error = np.empty(m.shape[0])
    for start in range(0, m.shape[0], _MF_CHUNK):
        rows = slice(start, start + _MF_CHUNK)
        s = proper_singular_values(m[rows])
        log_int, error[rows] = _log_mf_integral(s)
        log_beta[rows] = math.log(4.0 * math.pi) + s.sum(axis=1) + log_int
        worst = int(np.argmax(error[rows]))
        if not error[rows][worst] <= _MF_MAX_ERROR:
            raise NumericalFailure(
                f"so3_log_beta: error estimate {error[rows][worst]:.3g} exceeds"
                f" {_MF_MAX_ERROR:g} at proper singular values {s[worst].tolist()}"
            )
    return log_beta, error


def devec9(q: np.ndarray) -> np.ndarray:
    """Column-major devectorization of 9-vectors into 3 x 3 matrices."""
    q = np.atleast_2d(np.asarray(q, dtype=float))
    if q.shape[1] != 9:
        raise ValueError("devec9: expects 9 components")
    return q.reshape(-1, 3, 3).transpose(0, 2, 1)


def rho_so3() -> LikelihoodStatistic:
    """log beta ratio on the two 3 x 3 cross matrices of an 18-dim sample.

    Samples already carry the 1/sigma^2 scaling (see ``build_so3_problem``), so
    beta is evaluated at unit sigma.  The evaluator makes one ``so3_log_beta``
    call, on the calling thread, on both halves interleaved: bit for bit one
    call per half, but a refusal where both fail may name the X half's row.

    Its bracket bounds each row's value by the same split (see
    ``_log_beta_bounds``), without the quadrature, so the Monte-Carlo engine
    runs ``so3_log_beta`` only on the rows whose bracket can straddle its
    threshold, and every result is byte for byte the one of evaluating all
    rows.  The error estimate is therefore checked on the evaluated rows
    only; the threshold's own row is always one of them.
    """

    def evaluator(q: np.ndarray) -> np.ndarray:
        value = so3_log_beta(devec9(np.reshape(q, (-1, 9))))[0]
        return value[0::2] - value[1::2]

    return LikelihoodStatistic(dim=18, evaluator=evaluator, bracket=_rho_so3_bracket)


# The bracket (see _log_beta_bounds and _log_mf_bounds): panels per row;
# k U, where exp(-2ku) has fallen to exp(-12) and one last panel takes the
# rest; the slack on each log beta, and its rounding allowance per unit of
# its sums; Jacobi sweeps, and their and M^T M's eigenvalue error per unit
# of tr M^T M; the least trusted |det M| per unit of |M|_F^3.
_MF_BOUND_PANELS = 8
_MF_BOUND_DECAY = 6.0
_MF_BOUND_SLACK = 100.0 * _MF_MAX_ERROR
_MF_BOUND_ROUNDING = 64.0 * np.finfo(float).eps
_JACOBI_SWEEPS = 3
_JACOBI_ERROR = 256.0 * np.finfo(float).eps
_SIGN_ERROR = 64.0 * np.finfo(float).eps
# Exponents of the geometric panel ends: from near to U, and from near to
# (not at) 1/2 on each side of 1/2.
_GRADE = np.linspace(0.0, 1.0, _MF_BOUND_PANELS - 1)
_HALF_GRADE = np.linspace(0.0, 1.0, _MF_BOUND_PANELS // 2)[:-1]
_GRADE.setflags(write=False)
_HALF_GRADE.setflags(write=False)


def _rho_so3_bracket(q: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """Bounds lo <= rho_so3(q) <= hi per row, infinite where a half cannot be
    bounded, on the halves stacked as the evaluator stacks them.  Rounding is
    monotone, so lo1 - hi2 and hi1 - lo2 bound the evaluator's difference."""
    lo, hi = _log_beta_bounds(devec9(np.reshape(q, (-1, 9))))
    return lo[0::2] - hi[1::2], hi[0::2] - lo[1::2]


def _gram_eigenvalues(gram: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """Eigenvalues lam (3, n), descending, of the positive semidefinite 3 x 3
    matrices gram (6, n) = a00, a11, a22, a12, a02, a01 (overwritten), and a
    radius delta (n,) that holds each exact one, converged or not."""
    diag, off = gram[:3], gram[3:]
    trace = diag.sum(axis=0)
    for _ in range(_JACOBI_SWEEPS):
        for p, q, r in ((0, 1, 2), (0, 2, 1), (1, 2, 0)):
            apq = off[r]
            theta = (diag[q] - diag[p]) / (apq + apq)
            t = np.copysign(1.0, theta) / (np.abs(theta) + np.sqrt(theta * theta + 1.0))
            t[apq == 0.0] = 0.0   # 0/0 where the pair is already diagonal and equal
            c = 1.0 / np.sqrt(t * t + 1.0)
            s = t * c
            tau = s / (1.0 + c)
            diag[p] -= t * apq
            diag[q] += t * apq
            arp, arq = off[q], off[p]
            off[q], off[p] = arp - s * (arq + tau * arp), arq + s * (arp - tau * arq)
            off[r] = 0.0
    radius = np.abs(off).sum(axis=0)
    return np.sort(diag, axis=0)[::-1], radius + _JACOBI_ERROR * trace + np.finfo(float).tiny


def _log_beta_bounds(m: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """Bounds lo <= so3_log_beta(m)[0] <= hi per matrix, (-inf, inf) where a
    matrix entry is not finite, M^T M or a singular-value sum overflows, or a
    Bessel argument reaches 2^40; those rows always reach the evaluator,
    which raises on them as before.  No LAPACK call; with F = |M|_F:

    - Gram.  Each entry of M^T M, a dot product of two columns, lies within
      gamma_3 |m_i| |m_j| of the exact one, so G within gamma_3 F^2.
    - Jacobi (``_gram_eigenvalues``).  Each of the nine Rutishauser rotations
      is exact for a matrix within about 11 eps |G|_F of its input (an entry
      count after Demmel & Veselic 1992, SIAM J. Matrix Anal. Appl. 13), so
      with the Gram they move the eigenvalues by under half of
      _JACOBI_ERROR F^2.  The final D + E holds its eigenvalues within
      |E|_inf <= |e01| + |e02| + |e12| of its sorted diagonal (Weyl).  Both,
      plus the smallest normal for underflow, make delta, so each singular
      value lies within 2 delta / (sqrt(lam + delta) + sqrt(lam - delta)).
    - Sign of s3.  The evaluator's ``slogdet`` factors M + E, |E|_2 <=
      gamma_3 |L|_F |U|_F < 12 eps F under partial pivoting, so it signs s3
      as det M wherever s3 > 12 eps F.  The cofactor determinant of M scaled
      by a power of two to F near 1 lies within gamma_5 F^3 of det M (the
      permanent of |M| is at most F^3).  Above _SIGN_ERROR F^3 = 64 eps F^3
      it has det M's sign, and with s1 s2 <= F^2/2, s3 > 122 eps F: the signs
      agree.  Elsewhere (a det that is not finite too) each bound widens by
      twice s3 plus its drift, since |d log beta / d s3| <= 1.
    - Integral.  log beta moves by at most the summed moves of s, because
      |d log beta / d s_i| = |E[R_ii]| <= 1 under the matrix Fisher law.
      The evaluator's log of the integral lies within its error estimate,
      refused above _MF_MAX_ERROR, of the exact log J; each bound widens by
      _MF_BOUND_SLACK = 100 x _MF_MAX_ERROR and by the rounding of the sums
      and of the evaluator's SVD.
    """
    m = np.asarray(m, dtype=float)
    lo = np.empty(m.shape[0])
    hi = np.empty(m.shape[0])
    for start in range(0, m.shape[0], _MF_CHUNK):
        rows = slice(start, start + _MF_CHUNK)
        col = [m[rows, :, j] for j in range(3)]
        with np.errstate(all="ignore"):   # unbounded rows are replaced below
            gram = np.array([np.einsum("ij,ij->i", col[i], col[j])
                             for i, j in ((0, 0), (1, 1), (2, 2), (1, 2), (0, 2), (0, 1))])
            trace = gram[:3].sum(axis=0)
            lam, delta = _gram_eigenvalues(gram)
            drift = 2.0 * delta / (np.sqrt(lam + delta) + np.sqrt(np.maximum(lam - delta, 0.0)))
            s = np.sqrt(np.maximum(lam, 0.0))
            scale = np.ldexp(1.0, -(np.frexp(trace)[1] // 2))
            u = (m[rows] * scale[:, None, None]).transpose(1, 2, 0)
            det = (u[0, 0] * (u[1, 1] * u[2, 2] - u[2, 1] * u[1, 2])
                   - u[0, 1] * (u[1, 0] * u[2, 2] - u[2, 0] * u[1, 2])
                   + u[0, 2] * (u[1, 0] * u[2, 1] - u[2, 0] * u[1, 1]))
            sure = np.abs(det) > _SIGN_ERROR * (trace * scale * scale) ** 1.5
            s[2] = np.copysign(s[2], det)
            log_lo, log_hi = _log_mf_bounds(s.T)
            base = math.log(4.0 * math.pi) + s.sum(axis=0)
            pad = (drift.sum(axis=0) + np.where(sure, 0.0, 2.0 * (np.abs(s[2]) + drift[2]))
                   + _MF_BOUND_SLACK + _MF_BOUND_ROUNDING * (np.abs(base) + np.abs(log_hi) + 1.0))
            lo[rows] = base + log_lo - pad
            hi[rows] = base + log_hi + pad
        bounded = np.isfinite(lo[rows]) & np.isfinite(hi[rows])
        lo[rows][~bounded] = -np.inf
        hi[rows][~bounded] = np.inf
    return lo, hi


def _exp_mean(x: np.ndarray, e: np.ndarray) -> np.ndarray:
    """(1 - exp(-x))/x for x >= 0 given e = expm1(x): the mean of exp(-t)
    over [0, x]; 1 at 0."""
    return np.where(x > 0.0, 1.0 / (x + x / e), 1.0)


def _exp_centroid(x: np.ndarray, e: np.ndarray) -> np.ndarray:
    """1/x - 1/(exp(x) - 1) for x >= 0 given e = expm1(x): the mean of t
    over [0, 1] under the weight exp(-x t); by its series below 1e-2."""
    return np.where(x < 1e-2, 0.5 - x * (1.0 / 12.0 - x * x / 720.0), 1.0 / x - 1.0 / e)


def _toward_zero(near, top):
    """Panel ends u and 1 - u, and panel widths, on [0, 1]: graded
    geometrically from ``near`` up to ``top`` (rows of shape (n, 1)), then
    one panel from ``top`` to 1."""
    ones = np.ones_like(near)
    u = np.hstack([np.zeros_like(near), near * np.exp(np.log(top / near) * _GRADE), ones])
    return u, 1.0 - u, np.diff(u, axis=1)


def _toward_both(near, far):
    """Panel ends u and 1 - u, and panel widths, on [0, 1]: graded from
    ``near`` up to 1/2, then in 1 - u from 1/2 down to ``far``, so 1 - u is
    exact on that side."""
    zero, half = np.zeros_like(near), np.full_like(near, 0.5)
    u_near = np.hstack([zero, near * np.exp(np.log(0.5 / near) * _HALF_GRADE), half])
    v_far = np.hstack([half, (far * np.exp(np.log(0.5 / far) * _HALF_GRADE))[:, ::-1], zero])
    u = np.hstack([u_near, 1.0 - v_far[:, 1:]])
    v = np.hstack([1.0 - u_near, v_far[:, 1:]])
    return u, v, np.hstack([np.diff(u_near, axis=1), -np.diff(v_far, axis=1)])


def _panel_ends(a, b, k):
    """u, 1 - u and widths of every row's panels: ``_toward_zero`` up to
    U = _MF_BOUND_DECAY / k on the rows whose Gaussian the evaluator cuts
    off (k > 22.5), ``_toward_both`` on the others.  A batch of one kind is
    built without a copy."""
    near = 1.0 / (8.0 * np.maximum(np.maximum(a, k), 1.0))
    cut = k[:, 0] > 0.5 * _MF_TAIL   # the rows the evaluator cuts off
    if cut.all():
        return _toward_zero(near, _MF_BOUND_DECAY / k)
    far = 1.0 / (8.0 * np.maximum(np.maximum(b, k), 1.0))
    if not cut.any():
        return _toward_both(near, far)
    u = np.empty((cut.size, _MF_BOUND_PANELS + 1))
    v = np.empty_like(u)
    width = np.empty((cut.size, _MF_BOUND_PANELS))
    u[cut], v[cut], width[cut] = _toward_zero(near[cut], _MF_BOUND_DECAY / k[cut])
    u[~cut], v[~cut], width[~cut] = _toward_both(near[~cut], far[~cut])
    return u, v, width


def _log_mf_bounds(s: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """Bounds lo <= log J <= hi on the integral of ``_log_mf_integral`` for
    proper singular values s (n, 3); NaN or infinite on rows whose a, b, k
    overflow or whose Bessel arguments reach 2^40.

    With u = sin^2 p the integral is J = int_0^1 g(u) du, g(u) = h(u)
    exp(-2ku) and h(u) = i0e(2au) i0e(2b(1 - u)).  log I0 is convex, being
    the log of a moment-generating function, so log i0e = log I0 - x is
    convex, and h and g are log-convex, hence convex.  On a panel [l, r]:

    - g lies below the exponential through its end values, so int g <=
      (r - l)(g_r - g_l)/(ln g_r - ln g_l);
    - Jensen under the weight exp(-2ku) gives int g >= E h(u_bar), where E,
      the weight's integral, and u_bar, its mean, have closed forms.

    Both hold on any panels that cover [0, 1].  These are graded
    geometrically from 1/(8 max(a, k, 1)) up to U = 6/k, where exp(-2ku)
    has fallen to exp(-12), with one panel for the rest; or, for k <= 22.5,
    half toward each end, the far one from 1/(8 max(b, k, 1)).  Upper
    bounds on log i0e at the ends and lower bounds at the means are table
    edges (``log_i0e_upper``, ``log_i0e_lower``).
    """
    a = 0.5 * (s[:, 0:1] - s[:, 1:2])
    b = 0.5 * (s[:, 0:1] + s[:, 1:2])
    k = np.maximum(s[:, 1:2] + s[:, 2:3], 0.0)
    u, v, width = _panel_ends(a, b, k)
    decay = 2.0 * k * width
    growth = np.expm1(decay)

    # upper bound: the chord of ln g over each panel
    log_g = log_i0e_upper(2.0 * a * u) + log_i0e_upper(2.0 * b * v) - 2.0 * k * u
    peak = np.maximum(log_g[:, :-1], log_g[:, 1:])
    rise = np.abs(log_g[:, 1:] - log_g[:, :-1])
    upper = np.sum(width * np.exp(peak) * _exp_mean(rise, np.expm1(rise)), axis=1)

    # lower bound: Jensen at each panel's weighted mean
    shift = width * _exp_centroid(decay, growth)
    log_h = (log_i0e_lower(2.0 * a * (u[:, :-1] + shift))
             + log_i0e_lower(2.0 * b * (v[:, :-1] - shift)))
    lower = np.sum(width * np.exp(log_h - 2.0 * k * u[:, :-1]) * _exp_mean(decay, growth), axis=1)
    return np.log(lower), np.log(upper)


# Singular values of [X', X] / sigma below this fraction of the largest are
# dropped, so an exact rotation keeps rank 3 and no rounding-noise directions.
_RANK_TOL = 1e-12


def build_so3_problem(x: PointCloud, x_prime: PointCloud, sigma: float) -> RotationCertProblem:
    """Reduced 18-dim problem: a sample stacks vec(X'^T Z) and vec(X^T Z) over
    sigma^2, column-major as ``devec9`` reads them, for Z ~ N(C, sigma^2 I)
    with C = X' (perturbed) or X (clean).  With the thin SVD [X', X] / sigma
    = U S V^T, kept to the r singular values above _RANK_TOL s1, cloud^T Z /
    sigma^2 = (V S)_h (U^T Z / sigma) for the cloud's 3 x r block of rows
    (V S)_h, and U^T Z / sigma ~ N(U^T C / sigma, I).  So the 18 x 3r factor
    holds (V S)[3h + i] in row 9h + 3j + i, column block j, and each mean is
    the factor times vec(U^T C / sigma)."""
    if x.dim != 3 or x_prime.dim != 3:
        raise ValueError("build_so3_problem: requires D = 3")
    check_same_shape(x, x_prime)
    with np.errstate(over="ignore"):  # non-finite entries are refused below
        scaled = np.hstack([x_prime.data, x.data]) / sigma
    RotationCertProblem.check_finite(sigma, scaled)
    u, s, vt = np.linalg.svd(scaled, full_matrices=False)
    RotationCertProblem.check_finite(sigma, s)  # s1 may overflow on finite entries
    keep = s > _RANK_TOL * s[0]
    r = int(keep.sum())
    vs = (vt[keep].T * s[keep]).reshape(2, 3, r)   # (V S)[3h + i] at [h, i]
    factor = np.zeros((2, 3, 3, 3 * r))            # row 9h + 3j + i at [h, j, i]
    for j in range(3):
        factor[:, j, :, j * r : (j + 1) * r] = vs
    factor = factor.reshape(18, 3 * r)
    with np.errstate(over="ignore", invalid="ignore"):  # overflow is refused by the problem
        means = [factor @ (u[:, keep].T @ scaled[:, h : h + 3]).T.ravel() for h in (0, 3)]
    return RotationCertProblem(*means, factor, sigma, rho_so3())


_ROTATION_KINDS = (GroupKind.ROTATION, GroupKind.ROTO_TRANSLATION)


def _rotation_problem(
    group: GroupKind, x: PointCloud, x_prime: PointCloud, sigma: float
) -> RotationCertProblem:
    check_sigma(sigma, "certify_tight")
    if group not in _ROTATION_KINDS:
        raise ValueError(f"certify_tight: unsupported group {group}")
    check_same_shape(x, x_prime)
    if group is GroupKind.ROTO_TRANSLATION:
        x, x_prime = center(x), center(x_prime)
    if x.dim == 2:
        return build_so2_problem(x, x_prime, sigma)
    return build_so3_problem(x, x_prime, sigma)


# How close the orbit floor must lie to p, or the orbit ceiling to p_upper,
# for the Monte-Carlo stage to be skipped (see _floored_lower).  On the
# benchmark's fixtures p - floor read at most 4e-14 for exact rotations and
# at least 0.02 for noisy ones.
_FLOOR_SKIP = 1e-9

# An orbit distance at most this multiple of eps_mach (|X| + |X'|) is rounding
# noise of an orbit member.  On the coverage audit's exact rotations (30 seeds,
# SO and SE, |X||X'| / sigma^2 from 10 to 1e20), d / (eps_mach (|X| + |X'|))
# read at most 1.55 in 2-D and 5.79 in 3-D.
_MEMBER_ROUNDING = 64.0 * np.finfo(float).eps


def _orbit_distance(group: GroupKind, x: PointCloud, x_prime: PointCloud) -> tuple[float, bool]:
    """The orbit distance d, and whether X' is taken for an orbit member:
    d <= _MEMBER_ROUNDING (|X| + |X'|), the clouds centred for
    roto-translation (``PointCloud.norm``, finite wherever |X| is).  Each
    norm is scaled before the sum, which then cannot overflow; the scale is
    a power of two, so this rounds as _MEMBER_ROUNDING (|X| + |X'|) wherever
    that is finite and normal."""
    residual = project(group, x, x_prime).residual
    if group is GroupKind.ROTO_TRANSLATION:
        x, x_prime = center(x), center(x_prime)
    limit = _MEMBER_ROUNDING * x.norm() + _MEMBER_ROUNDING * x_prime.norm()
    return residual, residual <= limit


def _floored_lower(
    problem: RotationCertProblem, mc: McConfig, seed: int, p_lower: float, residual: float,
    member: bool,
) -> CertificateOutcome:
    """``prob_certify_reduced``'s outcome, never below the orbit floor
    shift_bound(p, residual, sigma): the worst case over every invariant
    classifier is never weaker than the worst case over the orbit ball.

    The tight value never exceeds p, because a randomized constant
    classifier attains p, so where p - floor <= _FLOOR_SKIP the Monte-Carlo
    stage could add at most _FLOOR_SKIP; on an orbit member (see
    ``_orbit_distance``) the tight value is p and the statistic rounding
    noise.  In both cases the outcome is the floor, drawn from no sample,
    with ``kappa_log`` None and the notes "orbit-floor" and "mc-skipped".
    Otherwise ``prob_certify_reduced`` takes the floor: the bound is
    max(Monte-Carlo bound, floor), with the note "orbit-floor" where the
    floor is the larger, and the count rows are not evaluated where their
    brackets already keep the Monte-Carlo bound below it.  The floor spends
    no alpha.
    """
    p_eff, clamped = clamp_probability(p_lower)
    floor = shift_bound(p_eff, residual, problem.sigma)
    if member or p_eff - floor <= _FLOOR_SKIP:
        notes = ("p-lower-supplied",) + ("p-lower-clamped",) * clamped
        return CertificateOutcome(
            certified=floor > 0.5,
            bound_value=floor,
            radius=blackbox_radius(p_eff, problem.sigma),
            p_lower=p_eff,
            confidence=1.0 - mc.alpha,
            method="tight-reduced",
            confidences=mc.confidences,
            notes=notes + ("orbit-floor", "mc-skipped"),
        )
    return mc_engine.prob_certify_reduced(problem, mc, seed, p_lower=p_lower, floor=floor)


def _capped_upper(
    problem: RotationCertProblem, mc: McConfig, seed: int, p_upper: float, residual: float,
    member: bool,
) -> float:
    """``prob_certify_upper_reduced``'s bound, never above the orbit ceiling
    shift_bound(p_upper, -residual, sigma), the best case over the orbit
    ball.  The best case over invariant classifiers is never below p_upper,
    so where the ceiling lies within _FLOOR_SKIP of p_upper, or X' is an
    orbit member, it is returned with no draws.  Otherwise
    ``prob_certify_upper_reduced`` takes the ceiling and evaluates no row
    where the brackets already hold its bound at the ceiling."""
    ceiling = shift_bound(p_upper, -residual, problem.sigma)
    if member or ceiling - p_upper <= _FLOOR_SKIP:
        return ceiling
    return mc_engine.prob_certify_upper_reduced(
        problem, mc, seed, p_upper=p_upper, ceiling=ceiling
    )


def certify_tight(
    group: GroupKind,
    x: PointCloud,
    x_prime: PointCloud,
    p_lower: float,
    sigma: float,
    mc: McConfig,
    seed: int,
) -> CertificateOutcome:
    """Tight lower bound on the worst-case prediction probability of a
    classifier invariant under group.  Translation has the closed form
    Phi(Phi^-1(p) - ||Delta - 1 mean(Delta)|| / sigma), which ignores mc and
    seed; rotation and roto-translation get the Monte-Carlo bound, never
    below ``certify_orbit``'s bound_value (see ``_floored_lower``), which it
    is, with no draws, on an orbit member such as X' = X R^T."""
    return certify_tight_and_multiclass(group, x, x_prime, p_lower, sigma, mc, seed)[0]


def certify_tight_and_multiclass(
    group: GroupKind,
    x: PointCloud,
    x_prime: PointCloud,
    p_lower: float,
    sigma: float,
    mc: McConfig,
    seed: int,
    p_upper: float | None = None,
) -> tuple[CertificateOutcome, CertificateOutcome | None]:
    """``certify_tight``'s outcome and, when p_upper is given,
    ``certify_multiclass``'s with pa_lower = p_lower (else None).  For
    rotation and roto-translation both come from one reduced problem: the
    multiclass lower stage is the tight outcome itself, cut once, and its
    upper stage reads the same pair of statistic samples.  The reduced
    problem is built before the orbit projection that gives the floor, so
    every refusal of its constructor still raises."""
    if group is GroupKind.TRANSLATION:
        notes = []
        p_eff, clamped = clamp_probability(p_lower)
        if clamped:
            notes.append("p-lower-clamped")
        proj = project_translation(x, x_prime)
        outcome = shift_outcome(
            p_eff, blackbox_radius(p_eff, sigma), proj, sigma, "tight-translation", notes
        )
        tight = replace(outcome, certified=outcome.bound_value > 0.5)
        problem = distance = lower = None
    else:
        problem = _rotation_problem(group, x, x_prime, sigma)
        distance = _orbit_distance(group, x, x_prime)
        lower = _floored_lower(problem, mc, seed, p_lower, *distance)
        tight = replace(lower, method=f"tight-{group.value}{x.dim}")
    if p_upper is None:
        return tight, None
    return tight, _multiclass(
        group, x, x_prime, p_lower, p_upper, sigma, mc, seed, problem, distance, lower
    )


def inverse_certificate(
    group: GroupKind | None,
    x: PointCloud,
    x_prime: PointCloud,
    sigma: float,
    mc: McConfig,
    seed: int,
) -> float:
    """Smallest clean prediction probability for which the perturbation can
    still be certified; closed form where available, otherwise Monte Carlo
    (upper bound holding with confidence 1 - alpha)."""
    check_sigma(sigma, "inverse_certificate")
    if group in _ROTATION_KINDS:
        return mc_engine.inverse_certify_reduced(
            _rotation_problem(group, x, x_prime, sigma), mc, seed
        )
    # closed form: certified iff residual < sigma Phi^-1(p)
    return std_normal_cdf(project(group, x, x_prime).residual / sigma)


def certify_multiclass(
    group: GroupKind | None,
    x: PointCloud,
    x_prime: PointCloud,
    pa_lower: float,
    pb_upper: float,
    sigma: float,
    mc: McConfig,
    seed: int,
) -> CertificateOutcome:
    """Certified iff the lower bound for the top class beats the upper bound
    for the runner-up.  Closed forms collapse to the radius comparison
    (sigma/2) (Phi^-1(pA) - Phi^-1(pB)).

    For rotation and roto-translation the lower stage is
    ``certify_tight(group, x, x_prime, pa_lower, sigma, mc, seed)`` itself,
    with the same seed and the same draws, and the upper bound is
    ``prob_certify_upper_reduced`` on the same problem and seed, never above
    the orbit ceiling Phi(Phi^-1(pB) + d / sigma) (see ``_capped_upper``):
    both stages read one pair of statistic samples.  Each bound keeps its
    own coverage, so the union bound charges the verdict alpha/2 + alpha/3
    for each stage, plus the alpha of whatever produced pa_lower and
    pb_upper.
    """
    return _multiclass(group, x, x_prime, pa_lower, pb_upper, sigma, mc, seed)


def _multiclass(
    group, x, x_prime, pa_lower, pb_upper, sigma, mc, seed, problem=None, distance=None,
    lower=None,
):
    """``certify_multiclass``: its checks, then its verdict.  For rotation
    and roto-translation both stages read the draws of ``problem``, the
    reduced problem, ``distance``, the ``_orbit_distance`` of the pair, and
    ``lower``, the ``_floored_lower`` outcome at pa_lower, when the caller
    already has all three; otherwise they are computed here."""
    check_sigma(sigma, "certify_multiclass")
    check_same_shape(x, x_prime)
    if group is not None and not isinstance(group, GroupKind):
        raise ValueError(f"certify_multiclass: unsupported group {group!r}")
    notes = []
    pa, clamped_a = clamp_probability(pa_lower)
    pb, clamped_b = clamp_probability(pb_upper)
    if clamped_a or clamped_b:
        notes.append("p-clamped")
    if pa <= pb:
        return CertificateOutcome(
            certified=False, bound_value=0.0, radius=0.0, p_lower=pa, confidence=1.0,
            method="multiclass", notes=tuple(notes) + ("pa-not-above-pb",),
        )
    if group in _ROTATION_KINDS:
        if lower is None:
            problem = _rotation_problem(group, x, x_prime, sigma)
            distance = _orbit_distance(group, x, x_prime)
            lower = _floored_lower(problem, mc, seed, pa_lower, *distance)
        upper = _capped_upper(problem, mc, seed, pb, *distance)
        # a clamped pa is reported once, by the multiclass "p-clamped" note
        lower_notes = tuple(note for note in lower.notes if note != "p-lower-clamped")
        return replace(
            lower,
            certified=lower.bound_value > upper,
            method=f"multiclass-tight-{group.value}{x.dim}",
            notes=lower_notes + tuple(notes) + (f"competitor-upper={upper!r}",),
        )
    # closed form: Theorem-2 post-processing of the multiclass ball.  For the
    # black box and T the bound is tight, so the competitor's is reported too.
    radius = multiclass_radius(pa, pb, sigma)
    proj = project(group, x, x_prime)
    if group is None or group is GroupKind.TRANSLATION:
        method = "multiclass-blackbox" if group is None else "multiclass-T"
        notes.append(f"competitor-upper={shift_bound(pb, -proj.residual, sigma)!r}")
    else:
        method = f"multiclass-orbit-{group.value}"
    return shift_outcome(pa, radius, proj, sigma, method, notes)


def multiclass_radius(pa_lower: float, pb_upper: float, sigma: float) -> float:
    """Black-box multi-class radius (sigma/2)(Phi^-1(pA) - Phi^-1(pB))."""
    check_sigma(sigma, "multiclass_radius")
    return 0.5 * sigma * (std_normal_quantile(pa_lower) - std_normal_quantile(pb_upper))


@dataclass(frozen=True)
class PminGrid:
    """p_min rasterized over normalized orientation parameters in [0,1]^2."""

    nodes: np.ndarray           # the normalized eps1 and eps2 share one set of nodes
    values: np.ndarray          # values[i, j] for (eps1, eps2) = (nodes[j], nodes[i])
    infeasible: np.ndarray      # bool mask, same shape
    loci: tuple[EpsilonParams, ...]


def pmin_grid(
    group: GroupKind | None,
    norm_x: float,
    norm_delta: float,
    sigma: float,
    grid_resolution: int,
    mc: McConfig,
    seed: int,
) -> PminGrid:
    """p_min over the (eps1~, eps2~) square; cells outside the unit disc are
    infeasible.  Every SO(2) cell is ``inverse_certify_reduced`` of its own
    problem at the grid's seed, and so an upper bound on its p_min at
    confidence 1 - alpha; the cells share the standard normals behind their
    draws, which are drawn once per grid.  Node k is k / (res - 1), the
    correctly rounded quotient, so a node of a coarse grid has the bits of
    the same fraction's node in a fine grid, and its cell the same value.
    """
    check_sigma(sigma, "pmin_grid")
    if norm_x < 0 or norm_delta < 0:
        raise ValueError("pmin_grid: norms must be >= 0")
    if grid_resolution < 2:
        raise ValueError("pmin_grid: resolution must be >= 2")
    if group not in (None, GroupKind.ROTATION):
        raise ValueError("pmin_grid: group must be blackbox (None) or SO(2)")
    res = grid_resolution
    nodes = np.arange(res) / (res - 1)
    values = np.full((res, res), np.nan)
    infeasible = np.zeros((res, res), dtype=bool)
    blackbox_value = std_normal_cdf(norm_delta / sigma)
    scale = norm_x * norm_delta
    normals: dict = {}
    for i in range(res):
        for j in range(res):
            e1, e2 = nodes[j], nodes[i]
            if math.hypot(e1, e2) > 1.0 + 1e-12:
                infeasible[i, j] = True
                continue
            if group is None:
                values[i, j] = blackbox_value
                continue
            problem = so2_problem_from_params(
                norm_x, norm_delta, e1 * scale, e2 * scale, sigma
            )
            values[i, j] = mc_engine.inverse_certify_reduced(
                problem, mc, seed, normals=normals
            )
    loci = tuple(adversarial_rotation_locus(norm_x, norm_delta))
    return PminGrid(nodes=nodes, values=values, infeasible=infeasible, loci=loci)

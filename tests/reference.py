"""Slow, simple references the tests check the package against.

Dense grids instead of quadrature, exhaustive search instead of assignment
solvers, plain Monte Carlo instead of reduced problems: each shares as little
algebra as possible with the code it checks.  Also the 2D and 3D projection
matrices behind the reduced SO(2) and SO(3) problems, and the
one-dimensional black-box reduction with its identity statistic, which
exercises the Monte-Carlo core where the answer is known in closed form.
The Frobenius inner product and the z-y-x Euler rotation live here too:
only the tests use them.
"""

from __future__ import annotations

import itertools
import math
from dataclasses import dataclass

import numpy as np
from scipy.special import logsumexp

from invarcert.geometry import (
    GroupKind,
    PointCloud,
    rot2,
    rotate_quarter_turn_back,
)
from invarcert.oracles import SyntheticClassifier
from invarcert.tight import LikelihoodStatistic, RotationCertProblem, so3_log_beta


def frobenius_inner(a, b) -> float:
    """Frobenius inner product sum_{n,d} A_nd * B_nd."""
    a = a.data if isinstance(a, PointCloud) else np.asarray(a, dtype=float)
    b = b.data if isinstance(b, PointCloud) else np.asarray(b, dtype=float)
    if a.shape != b.shape:
        raise ValueError("frobenius_inner: shape mismatch")
    return float(np.sum(a * b))


def rot3_zyx(omega) -> np.ndarray:
    """Intrinsic z-y-x rotation: R_z(w1) @ R_y(w2) @ R_x(w3)."""
    w1, w2, w3 = float(omega[0]), float(omega[1]), float(omega[2])
    c1, s1 = math.cos(w1), math.sin(w1)
    c2, s2 = math.cos(w2), math.sin(w2)
    c3, s3 = math.cos(w3), math.sin(w3)
    rz = np.array([[c1, -s1, 0.0], [s1, c1, 0.0], [0.0, 0.0, 1.0]])
    ry = np.array([[c2, 0.0, s2], [0.0, 1.0, 0.0], [-s2, 0.0, c2]])
    rx = np.array([[1.0, 0.0, 0.0], [0.0, c3, -s3], [0.0, s3, c3]])
    return rz @ ry @ rx


def random_group_element(kind: GroupKind, d: int, rng: np.random.Generator, n_points: int):
    """Sample a transformation t of D = d coordinates and return the callable
    Z -> t o Z."""

    def random_rotation() -> np.ndarray:
        if d == 2:
            return rot2(rng.uniform(0.0, 2.0 * math.pi))
        return rot3_zyx(
            [
                rng.uniform(0.0, 2.0 * math.pi),
                rng.uniform(-0.5 * math.pi, 0.5 * math.pi),
                rng.uniform(0.0, 2.0 * math.pi),
            ]
        )

    if kind is GroupKind.TRANSLATION:
        b = rng.normal(size=d)
        return lambda z: z + b
    if kind is GroupKind.ROTATION:
        r = random_rotation()
        return lambda z: z @ r.T
    if kind is GroupKind.ORTHOGONAL:
        r = random_rotation()
        if rng.random() < 0.5:
            flip = np.eye(d)
            flip[-1, -1] = -1.0
            r = r @ flip
        return lambda z: z @ r.T
    if kind is GroupKind.ROTO_TRANSLATION:
        r = random_rotation()
        b = rng.normal(size=d)
        return lambda z: z @ r.T + b
    if kind is GroupKind.PERMUTATION:
        perm = rng.permutation(n_points)
        return lambda z: z[perm]
    if kind is GroupKind.PERMUTATION_ROTO_TRANSLATION:
        r = random_rotation()
        b = rng.normal(size=d)
        perm = rng.permutation(n_points)
        return lambda z: (z @ r.T + b)[perm]
    raise ValueError(f"random_group_element: unsupported group {kind}")


def invariance_audit(
    g: SyntheticClassifier,
    x: PointCloud,
    n_elements: int,
    seed: int,
    group: GroupKind | None = None,
) -> int:
    """Number of label flips of g over random elements of group, by default
    its declared invariance."""
    group = g.invariance if group is None else group
    rng = np.random.default_rng(seed)
    base = g.predict(x)
    flips = 0
    for _ in range(n_elements):
        t = random_group_element(group, x.dim, rng, x.n_points)
        if int(g.predict_batch(t(x.data)[None])[0]) != base:
            flips += 1
    return flips


def haar_oracle_so2(x: PointCloud, z: PointCloud, sigma: float, grid: int) -> float:
    """log of the trapezoid approximation of the rotation-averaged Gaussian
    kernel integral over [0, 2 pi] (log-sum-exp, honest per-angle rotation)."""
    if x.dim != 2 or z.dim != 2:
        raise ValueError("haar_oracle_so2: requires D = 2")
    if grid < 1000:
        raise ValueError("haar_oracle_so2: grid must be >= 1000")
    omegas = np.linspace(0.0, 2.0 * math.pi, grid + 1)
    c, s = np.cos(omegas), np.sin(omegas)
    rots = np.zeros((grid + 1, 2, 2))
    rots[:, 0, 0] = c
    rots[:, 0, 1] = -s
    rots[:, 1, 0] = s
    rots[:, 1, 1] = c
    # <Z R(w)^T, X> for every angle; (grid+1, N, 2) contracted against X
    zrot = np.einsum("kij,nj->kni", rots, z.data)
    exponents = np.einsum("kni,ni->k", zrot, x.data) / (sigma * sigma)
    logw = np.full(grid + 1, math.log(2.0 * math.pi / grid))
    logw[0] -= math.log(2.0)
    logw[-1] -= math.log(2.0)
    return float(logsumexp(exponents + logw))


def haar_oracle_so3(m: np.ndarray, sigma: float, grid: int) -> float:
    """Dense trapezoid of the three-angle rotation average with weight
    cos(w2), in the log domain.

    m is the 3 x 3 cross matrix (input columns against sample columns); the
    integrand is exp(<R(w), m>_F / sigma^2) with R built from elemental
    rotations, so this shares no algebra with the quadrature path.
    """
    if grid < 50:
        raise ValueError("haar_oracle_so3: grid must be >= 50 per dimension")
    msc = np.asarray(m, dtype=float) / (sigma * sigma)
    w1 = np.linspace(0.0, 2.0 * math.pi, grid + 1)
    w2 = np.linspace(-0.5 * math.pi, 0.5 * math.pi, grid + 1)
    w3 = np.linspace(0.0, 2.0 * math.pi, grid + 1)

    def trap_logw(points: np.ndarray) -> np.ndarray:
        step = points[1] - points[0]
        logw = np.full(points.size, math.log(step))
        logw[0] -= math.log(2.0)
        logw[-1] -= math.log(2.0)
        return logw

    logw1, logw2, logw3 = trap_logw(w1), trap_logw(w2), trap_logw(w3)
    rz = np.zeros((w1.size, 3, 3))
    rz[:, 0, 0] = np.cos(w1)
    rz[:, 0, 1] = -np.sin(w1)
    rz[:, 1, 0] = np.sin(w1)
    rz[:, 1, 1] = np.cos(w1)
    rz[:, 2, 2] = 1.0
    rx = np.zeros((w3.size, 3, 3))
    rx[:, 0, 0] = 1.0
    rx[:, 1, 1] = np.cos(w3)
    rx[:, 1, 2] = -np.sin(w3)
    rx[:, 2, 1] = np.sin(w3)
    rx[:, 2, 2] = np.cos(w3)
    slice_logs = np.empty(w2.size)
    with np.errstate(divide="ignore"):
        logcos2 = np.log(np.clip(np.cos(w2), 0.0, None))
    for idx, angle in enumerate(w2):
        ry = np.array(
            [
                [math.cos(angle), 0.0, math.sin(angle)],
                [0.0, 1.0, 0.0],
                [-math.sin(angle), 0.0, math.cos(angle)],
            ]
        )
        # T[k] = Ry Rx_k m^T; exponent[i, k] = tr(Rz_i T[k]) = <Rz_i Ry Rx_k, m>
        t = np.einsum("ab,kbc,dc->kad", ry, rx, msc)
        exponents = np.einsum("iab,kba->ik", rz, t)
        vals = exponents + logw1[:, None] + logw3[None, :]
        slice_logs[idx] = logsumexp(vals, axis=None)
    return float(logsumexp(slice_logs + logw2 + logcos2))


def brute_force_procrustes_2d(x: PointCloud, x_prime: PointCloud, grid: int) -> float:
    """Minimum of ||X' R(theta)^T - X|| over a uniform angle grid."""
    if x.dim != 2 or x_prime.dim != 2:
        raise ValueError("brute_force_procrustes_2d: requires D = 2")
    if grid < 10_000:
        raise ValueError("brute_force_procrustes_2d: grid must be >= 10000")
    best = math.inf
    thetas = np.linspace(0.0, 2.0 * math.pi, grid, endpoint=False)
    chunk = 20_000
    for start in range(0, grid, chunk):
        t = thetas[start : start + chunk]
        rots = np.zeros((t.size, 2, 2))
        rots[:, 0, 0] = np.cos(t)
        rots[:, 0, 1] = -np.sin(t)
        rots[:, 1, 0] = np.sin(t)
        rots[:, 1, 1] = np.cos(t)
        moved = np.einsum("ni,kji->knj", x_prime.data, rots)
        residuals = np.linalg.norm(moved - x.data[None], axis=(1, 2))
        best = min(best, float(residuals.min()))
    return best


def brute_force_permutation(x: PointCloud, x_prime: PointCloud) -> float:
    """Exact minimum of ||P X' - X|| over all row permutations (N <= 8)."""
    if x.n_points > 8:
        raise ValueError("brute_force_permutation: refused for N > 8")
    if x.data.shape != x_prime.data.shape:
        raise ValueError("brute_force_permutation: shape mismatch")
    perms = np.array(list(itertools.permutations(range(x.n_points))))
    diffs = x_prime.data[perms] - x.data[None]
    costs = np.einsum("pnd,pnd->p", diffs, diffs)
    return float(math.sqrt(max(costs.min(), 0.0)))


@dataclass(frozen=True)
class ReferenceEstimate:
    probability: float
    std_error: float
    n: int


def reference_probability(
    g: SyntheticClassifier,
    x: PointCloud,
    sigma: float,
    n: int,
    seed: int,
    label: int | None = None,
) -> ReferenceEstimate:
    """Empirical frequency of g predicting ``label`` (default: its clean
    label on x) under Gaussian input noise, with the binomial standard error."""
    if n < 1_000_000:
        raise ValueError("reference_probability: n must be >= 1e6")
    target = g.predict(x) if label is None else label
    rng = np.random.default_rng(seed)
    hits = 0
    chunk = max(1, int(4_000_000 // x.data.size))
    remaining = n
    while remaining > 0:
        m = min(chunk, remaining)
        remaining -= m
        noise = rng.standard_normal((m,) + x.data.shape) * sigma
        hits += int(np.count_nonzero(g.predict_batch(x.data + noise) == target))
    p = hits / n
    return ReferenceEstimate(p, math.sqrt(max(p * (1.0 - p), 0.0) / n), n)


def so3_log_beta_hat(m: np.ndarray, sigma: float) -> float:
    """log beta(m / sigma^2) for one cross matrix m at noise sigma.

    This is the rotation average up to the additive constant that the
    numerator and denominator of the likelihood ratio share: the full
    three-angle Haar integral of ``haar_oracle_so3`` is larger by log 2 pi.
    """
    if sigma <= 0:
        raise ValueError("so3_log_beta_hat: sigma must be > 0")
    m = np.asarray(m, dtype=float)
    if m.shape != (3, 3):
        raise ValueError("so3_log_beta_hat: m must be 3 x 3")
    return float(so3_log_beta(m[None] / (sigma * sigma))[0][0])


def so2_projection_matrix(x: PointCloud, x_prime: PointCloud, sigma: float) -> np.ndarray:
    """The 4 x 2N projection whose Gram matrix reconstructs the covariance of
    ``tight.build_so2_problem``."""
    rows = [
        x_prime.data,
        rotate_quarter_turn_back(x_prime.data),
        x.data,
        rotate_quarter_turn_back(x.data),
    ]
    return np.stack([m.T.ravel() for m in rows]) / (sigma * sigma)


def so3_projection_matrix(x: PointCloud, x_prime: PointCloud, sigma: float) -> np.ndarray:
    """The 18 x 3N projection stacking all cross terms of (X'^T Z, X^T Z):
    row 9*half + 3*j + i picks (cloud^T Z)_{i+1, j+1} / sigma^2, each half
    column-major as ``devec9`` reads it.  A sample of
    ``tight.build_so3_problem`` is this matrix times vec(Z), Z ~ N(C,
    sigma^2 I), so its means are W vec(C) and its covariance sigma^2 W W^T."""
    n = x.n_points
    w = np.zeros((18, 3 * n))
    for half, cloud in enumerate((x_prime, x)):
        base = 9 * half
        cols = cloud.data
        for j in range(3):       # column block of vec(Z)
            for i in range(3):   # column of the cloud
                w[base + 3 * j + i, j * n : (j + 1) * n] = cols[:, i]
    return w / (sigma * sigma)


def blackbox_reduced_problem(norm_delta: float, sigma: float) -> RotationCertProblem:
    """One-dimensional reduction of the black-box certificate: a unit-variance
    normal shifted by ||Delta|| / sigma, compared by the identity statistic."""
    if sigma <= 0:
        raise ValueError("blackbox_reduced_problem: sigma must be > 0")
    return RotationCertProblem(
        mean_perturbed=np.array([norm_delta / sigma]),
        mean_clean=np.array([0.0]),
        factor=np.array([[1.0]]),
        sigma=sigma,
        statistic=linear_statistic(),
    )


def sorted_cut(threshold, counted, n_star: int, below: bool) -> tuple[float, int]:
    """The Monte-Carlo cut with every value known: kappa is the n_star-th of
    the stably sorted threshold values, and the count is how many counted
    values fall strictly below kappa (or above it), plus kappa's tie group at
    the share of it that sits at or below position n_star."""
    threshold = np.sort(threshold, kind="stable")
    kappa = float(threshold[n_star - 1])
    lo = int(np.searchsorted(threshold, kappa, side="left"))
    hi = int(np.searchsorted(threshold, kappa, side="right"))
    share = (n_star - lo) / (hi - lo)
    ties = int(np.count_nonzero(counted == kappa))
    if below:
        return kappa, int(np.count_nonzero(counted < kappa)) + math.floor(share * ties)
    return kappa, int(np.count_nonzero(counted > kappa)) + math.floor((1.0 - share) * ties)


def linear_statistic() -> LikelihoodStatistic:
    """Identity statistic for the one-dimensional reductions."""
    return LikelihoodStatistic(dim=1, evaluator=lambda q: q[:, 0])

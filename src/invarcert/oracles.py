"""Brute-force references and synthetic invariant classifiers.

The references are deliberately slow and simple: dense grids instead of
quadrature, exhaustive search instead of assignment solvers.  The synthetic
classifiers are not: they label every noisy copy of a smoothed prediction, so
they are vectorized over the batch.  Each is built from an invariant feature,
so its declared invariance holds exactly.
"""

from __future__ import annotations

import itertools
import math
from dataclasses import dataclass

import numpy as np
from scipy.special import logsumexp

from .geometry import GroupKind, GroupSpec, PointCloud, rot2, rot3_zyx

# Pairwise-centroid batches are profiled in row chunks whose pairwise
# coordinate differences (8 * D * N(N-1)/2 bytes a cloud) take this much.
# One coordinate plane of a chunk is then _PROFILE_BYTES / D, so the few
# pair-sized arrays alive at once (two gathers, their difference, the running
# sum of squares) stay within a 2 MiB L2 cache.  Of 2**18, 2**19 and 2**20,
# 2**20 labelled 10**4 clouds fastest at N = 64, D = 2 and 3 (2-core Xeon).
_PROFILE_BYTES = 2**20


@dataclass(frozen=True)
class SyntheticClassifier:
    """Binary classifier from an exactly invariant feature of the input.

    kind "norm": 1 iff ||Z|| <= tau (rotation/reflection/permutation
    invariant).  kind "centered-norm": the same on the centered input
    (additionally translation invariant).  kind "pairwise-centroid": 1 iff
    the sorted pairwise-and-centroid distance profile stays within tau of a
    reference signature (invariant under all Euclidean isometries and
    permutation).
    """

    kind: str
    invariance: GroupSpec
    tau: float
    signature: np.ndarray | None = None

    def predict_batch(self, batch: np.ndarray) -> np.ndarray:
        batch = np.asarray(batch, dtype=float)
        if batch.ndim == 2:
            batch = batch[None]
        if self.kind == "norm":
            feat = np.linalg.norm(batch, axis=(1, 2))
            return (feat <= self.tau).astype(int)
        if self.kind == "centered-norm":
            centered = batch - batch.mean(axis=1, keepdims=True)
            feat = np.linalg.norm(centered, axis=(1, 2))
            return (feat <= self.tau).astype(int)
        if self.kind == "pairwise-centroid":
            n, d = batch.shape[1:]
            pairs = np.triu_indices(n, k=1)
            rows = max(1, _PROFILE_BYTES // max(1, 8 * d * len(pairs[0])))
            dist = np.empty(len(batch))
            for start in range(0, len(batch), rows):
                profile = _distance_profile(batch[start : start + rows], pairs)
                dist[start : start + rows] = np.linalg.norm(profile - self.signature, axis=1)
            return (dist <= self.tau).astype(int)
        raise ValueError(f"SyntheticClassifier: unknown kind {self.kind!r}")

    def predict(self, x: PointCloud) -> int:
        return int(self.predict_batch(x.data[None])[0])


def _distance_profile(batch: np.ndarray, pairs: tuple[np.ndarray, np.ndarray]) -> np.ndarray:
    """Sorted pairwise distances, then sorted distances to the centroid, of
    each cloud of batch; pairs is np.triu_indices(N, k=1).

    The squared differences are summed one coordinate plane at a time, in
    coordinate order: the arithmetic of np.linalg.norm over the coordinate
    axis, without its strided reduction, so the distances match it bit for
    bit.
    """
    iu, ju = pairs
    pair = np.zeros((len(batch), len(iu)))
    for c in range(batch.shape[2]):
        col = batch[:, :, c]
        diff = col[:, iu] - col[:, ju]
        diff *= diff
        pair += diff
    np.sqrt(pair, out=pair)
    cent = np.linalg.norm(batch - batch.mean(axis=1, keepdims=True), axis=2)
    pair.sort(axis=1)
    cent.sort(axis=1)
    return np.concatenate([pair, cent], axis=1)


def norm_threshold_classifier(tau: float, dim: int) -> SyntheticClassifier:
    return SyntheticClassifier("norm", GroupSpec(GroupKind.ROTATION, dim), tau)


def centered_norm_threshold_classifier(tau: float, dim: int) -> SyntheticClassifier:
    return SyntheticClassifier("centered-norm", GroupSpec(GroupKind.ROTO_TRANSLATION, dim), tau)


def pairwise_centroid_classifier(reference: PointCloud, tau: float) -> SyntheticClassifier:
    pairs = np.triu_indices(reference.n_points, k=1)
    signature = _distance_profile(reference.data[None], pairs)[0]
    return SyntheticClassifier(
        "pairwise-centroid",
        GroupSpec(GroupKind.PERMUTATION_ROTO_TRANSLATION, reference.dim),
        tau,
        signature=signature,
    )


def make_classifier(kind: str, tau: float, reference: PointCloud) -> SyntheticClassifier:
    """CLI-facing factory keyed by the classifier names of the command line."""
    if kind == "norm":
        return norm_threshold_classifier(tau, reference.dim)
    if kind == "centered-norm":
        return centered_norm_threshold_classifier(tau, reference.dim)
    if kind == "pairwise-centroid":
        return pairwise_centroid_classifier(reference, tau)
    raise ValueError(f"unknown classifier kind {kind!r}")


def random_group_element(group: GroupSpec, rng: np.random.Generator, n_points: int):
    """Sample a transformation t and return the callable Z -> t o Z."""
    d = group.dim
    kind = group.kind

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
    g: SyntheticClassifier, x: PointCloud, n_elements: int, seed: int
) -> int:
    """Number of label flips of g over random elements of its declared group."""
    rng = np.random.default_rng(seed)
    base = g.predict(x)
    flips = 0
    for _ in range(n_elements):
        t = random_group_element(g.invariance, rng, x.n_points)
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

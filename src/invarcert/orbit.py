"""Orbit-based gray-box certificates.

A prediction certified within a Frobenius ball of radius r = sigma * Phi^-1(p)
stays certified for any perturbed input that some group element maps into the
ball, so each certificate reduces to an orbit projection: the group element
minimizing ||(t o X') - X||_2.
"""

from __future__ import annotations

from dataclasses import dataclass, replace

import numpy as np

from .geometry import (
    GroupKind,
    PointCloud,
    center_matrix,
    check_same_shape,
    frobenius_norm,
)
from .numerics import (
    NumericalFailure,
    check_sigma,
    clamp_probability,
    std_normal_cdf,
    std_normal_quantile,
)

_REGISTRATION_STOP = 1e-9


def linear_sum_assignment(cost):
    """scipy's solver, imported on first call: only S and SxSE need scipy.optimize."""
    from scipy.optimize import linear_sum_assignment as solve

    return solve(cost)


@dataclass(frozen=True)
class OrbitProjection:
    """Result of minimizing ||(t o X') - X||_2 over a group.

    ``exact`` is False for the registration upper bound, whose residual is a
    sound upper bound but not the orbit distance.
    """

    residual: float
    rotation: np.ndarray | None = None
    translation: np.ndarray | None = None
    permutation: np.ndarray | None = None
    exact: bool = True

    def transform_description(self) -> dict:
        out: dict = {}
        if self.rotation is not None:
            out["rotation"] = self.rotation.tolist()
        if self.translation is not None:
            out["translation"] = self.translation.tolist()
        if self.permutation is not None:
            out["permutation"] = self.permutation.tolist()
        return out


@dataclass(frozen=True)
class CertificateOutcome:
    """Verdict of a certificate together with the quantities behind it."""

    certified: bool
    bound_value: float
    radius: float
    p_lower: float
    confidence: float
    method: str
    residual: float | None = None
    kappa_log: float | None = None
    confidences: tuple[float, ...] = ()
    notes: tuple[str, ...] = ()

    @property
    def margin(self) -> float | None:
        """radius - residual: how far the verdict sits from the strict
        comparison, for callers that want their own tolerance."""
        if self.residual is None:
            return None
        return self.radius - self.residual


def blackbox_radius(p_lower: float, sigma: float) -> float:
    """Certified radius sigma * Phi^-1(p_lower); negative below p = 1/2."""
    check_sigma(sigma, "blackbox_radius")
    if not 0.0 < p_lower < 1.0:
        raise ValueError("blackbox_radius: p_lower must lie in (0,1)")
    return sigma * std_normal_quantile(p_lower)


def shift_bound(p: float, residual: float, sigma: float) -> float:
    """Phi(Phi^-1(p) - residual / sigma): the worst-case probability of a class
    with clean probability p at orbit distance residual.  A negative residual
    gives the best case, the competitor's upper bound."""
    check_sigma(sigma, "shift_bound")
    return std_normal_cdf(std_normal_quantile(p) - residual / sigma)


def _difference(x: PointCloud, x_prime: PointCloud) -> np.ndarray:
    """Delta = X' - X; NumericalFailure where an entry overflows."""
    check_same_shape(x, x_prime)
    with np.errstate(over="ignore"):
        delta = x_prime.data - x.data
    if not np.isfinite(delta).all():
        raise NumericalFailure("orbit: the difference X' - X is not finite")
    return delta


def project_translation(x: PointCloud, x_prime: PointCloud) -> OrbitProjection:
    """Optimal translation is minus the column-mean of Delta."""
    delta = _difference(x, x_prime)
    with np.errstate(over="ignore", invalid="ignore"):
        mean = delta.mean(axis=0)
        centred = delta - mean
    if not np.isfinite(centred).all():
        raise NumericalFailure("translation: X' - X minus its mean is not finite")
    return OrbitProjection(residual=frobenius_norm(centred), translation=-mean)


def _procrustes(x: PointCloud, x_prime: PointCloud, proper: bool) -> OrbitProjection:
    # min over R of ||X' R^T - X||; standard factorization U S V^T = (X')^T X,
    # optimal map V U^T, with the last singular direction sign-flipped when a
    # proper rotation is required and det(V U^T) < 0.  LAPACK's SVD of a
    # matrix holding an inf does not return, so an overflowed product is
    # refused first, as is an aligned difference that overflows.
    check_same_shape(x, x_prime)
    with np.errstate(over="ignore", invalid="ignore"):
        cross = x_prime.data.T @ x.data
    if not np.isfinite(cross).all():
        raise NumericalFailure("Procrustes: the cross matrix (X')^T X is not finite")
    u, _, vt = np.linalg.svd(cross)
    v = vt.T
    if proper:
        d = np.linalg.slogdet(v @ u.T)[0]  # v, u orthogonal: d is +-1
        s_hat = np.ones(u.shape[0])
        s_hat[-1] = d
        r = v @ np.diag(s_hat) @ u.T
    else:
        r = v @ u.T
    with np.errstate(over="ignore", invalid="ignore"):
        aligned = x_prime.data @ r.T - x.data
    if not np.isfinite(aligned).all():
        raise NumericalFailure("Procrustes: the residual X' R^T - X is not finite")
    return OrbitProjection(residual=frobenius_norm(aligned), rotation=r)


def project_rotation(x: PointCloud, x_prime: PointCloud) -> OrbitProjection:
    """Procrustes restricted to proper rotations (det = 1)."""
    return _procrustes(x, x_prime, proper=True)


def project_orthogonal(x: PointCloud, x_prime: PointCloud) -> OrbitProjection:
    """Full orthogonal Procrustes (rotations and reflections)."""
    return _procrustes(x, x_prime, proper=False)


def project_roto_translation(x: PointCloud, x_prime: PointCloud) -> OrbitProjection:
    """Kabsch: center both clouds, then rotation-only Procrustes."""
    check_same_shape(x, x_prime)
    xc = center_matrix(x.data)
    xpc = center_matrix(x_prime.data)
    proj = _procrustes(PointCloud(xc), PointCloud(xpc), proper=True)
    r = proj.rotation
    translation = x.data.mean(axis=0) - r @ x_prime.data.mean(axis=0)
    return OrbitProjection(residual=proj.residual, rotation=r, translation=translation)


def project_permutation(x: PointCloud, x_prime: PointCloud) -> OrbitProjection:
    """Minimum-cost row assignment with cost C[n, m] = ||X'_n - X_m||^2.
    An entry that overflows is +inf, which the solver never assigns; where
    every assignment meets one, or the assigned costs sum past the float
    range, NumericalFailure is raised."""
    check_same_shape(x, x_prime)
    # one coordinate plane at a time, summed in coordinate order: the same
    # bits as summing an (N, N, D) difference array over its last axis.  Each
    # later plane is squared in one reused buffer, so at most two N x N
    # arrays are alive.
    xp, xd = x_prime.data, x.data
    with np.errstate(over="ignore"):
        cost = np.subtract.outer(xp[:, 0], xd[:, 0])
        cost *= cost
        plane = np.empty_like(cost)
        for k in range(1, x.dim):
            np.subtract.outer(xp[:, k], xd[:, k], out=plane)
            plane *= plane
            cost += plane
    try:
        rows, cols = linear_sum_assignment(cost)
    except ValueError as exc:  # scipy: "cost matrix is infeasible"
        raise NumericalFailure("assignment: every assignment's cost overflows") from exc
    # perm[m] = n means row n of X' is matched to row m of X
    perm = np.empty(x.n_points, dtype=int)
    perm[cols] = rows
    with np.errstate(over="ignore"):
        total = cost[rows, cols].sum()
    if not np.isfinite(total):
        raise NumericalFailure("assignment: the assigned cost overflows")
    residual = float(np.sqrt(max(total, 0.0)))
    return OrbitProjection(residual=residual, permutation=perm)


def project_registration_upper(
    x: PointCloud, x_prime: PointCloud, max_iters: int = 50
) -> OrbitProjection:
    """Upper bound on the S(N) x SE(D) orbit distance by alternating the
    assignment and Kabsch steps until the residual stalls.

    The residual is monotonically nonincreasing and starts at ||X' - X||, so
    the identity transform is always a valid fallback; where X' - X
    overflows, NumericalFailure is raised.
    """
    check_same_shape(x, x_prime)
    if max_iters < 1:
        raise ValueError("project_registration_upper: max_iters must be >= 1")
    best = frobenius_norm(_difference(x, x_prime))
    current = x_prime.data.copy()
    perm_total = np.arange(x.n_points)
    rot_total = np.eye(x.dim)
    trans_total = np.zeros(x.dim)
    for _ in range(max_iters):
        perm_step = project_permutation(x, PointCloud(current))
        permuted = current[perm_step.permutation]
        se_step = project_roto_translation(x, PointCloud(permuted))
        candidate = permuted @ se_step.rotation.T + se_step.translation
        residual = float(np.linalg.norm(candidate - x.data))
        stalled = residual > best - _REGISTRATION_STOP
        if residual < best:
            best = residual
            perm_total = perm_total[perm_step.permutation]
            rot_total = se_step.rotation @ rot_total
            trans_total = se_step.rotation @ trans_total + se_step.translation
            current = candidate
        if stalled:
            break
    return OrbitProjection(
        residual=best,
        rotation=rot_total,
        translation=trans_total,
        permutation=perm_total,
        exact=False,
    )


_PROJECTORS = {
    GroupKind.TRANSLATION: project_translation,
    GroupKind.ROTATION: project_rotation,
    GroupKind.ORTHOGONAL: project_orthogonal,
    GroupKind.ROTO_TRANSLATION: project_roto_translation,
    GroupKind.PERMUTATION: project_permutation,
    GroupKind.PERMUTATION_ROTO_TRANSLATION: project_registration_upper,
}


def project(
    group: GroupKind | None, x: PointCloud, x_prime: PointCloud, max_iters: int = 50
) -> OrbitProjection:
    """Orbit projection dispatch for all supported groups.  None is the
    trivial group of the black-box certificate, whose orbit distance is
    ||X' - X||."""
    if group is None:
        return OrbitProjection(residual=frobenius_norm(_difference(x, x_prime)))
    projector = _PROJECTORS.get(group)
    if projector is None:
        raise ValueError(f"project: unsupported group {group}")
    if projector is project_registration_upper:
        return projector(x, x_prime, max_iters)
    return projector(x, x_prime)


def shift_outcome(
    p: float, radius: float, proj: OrbitProjection, sigma: float, method: str, notes: list[str]
) -> CertificateOutcome:
    """Closed-form outcome at orbit distance proj.residual: certified iff the
    residual is strictly below radius, with bound_value
    shift_bound(p, residual, sigma).  An inexact projection adds the note
    "approximate-registration-upper-bound" after the given notes."""
    if not proj.exact:
        notes = [*notes, "approximate-registration-upper-bound"]
    return CertificateOutcome(
        certified=proj.residual < radius,
        bound_value=shift_bound(p, proj.residual, sigma),
        radius=radius,
        p_lower=p,
        confidence=1.0,
        method=method,
        residual=proj.residual,
        notes=tuple(notes),
    )


def certify_orbit(
    group: GroupKind,
    x: PointCloud,
    x_prime: PointCloud,
    p_lower: float,
    sigma: float,
) -> CertificateOutcome:
    """Certified iff the orbit residual is strictly below the black-box radius.

    bound_value reports shift_bound(p, residual, sigma), which coincides
    with the verdict (strictly above 1/2 iff residual < radius).
    """
    if not isinstance(group, GroupKind):  # None, the black box, has no orbit
        raise ValueError(f"certify_orbit: unsupported group {group!r}")
    notes: list[str] = []
    p_eff, clamped = clamp_probability(p_lower)
    if clamped:
        notes.append("p-lower-clamped")
    radius = blackbox_radius(p_eff, sigma)
    outcome = shift_outcome(
        p_eff, radius, project(group, x, x_prime), sigma, f"orbit-{group.value}", notes
    )
    if radius <= 0.0:
        return replace(outcome, notes=outcome.notes + ("radius-nonpositive",))
    return outcome

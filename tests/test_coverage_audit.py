"""Coverage audit: on fixtures whose worst case is known, a certificate
exceeds the truth only at the rate its confidence allows.

X' = X and exact rotations X' = X R^T (plus a translation for SE) are orbit
members: an invariant classifier has the same probability at X' as at X.
So the truth of the tight lower bound is p, and that of the multi-class
competitor's upper bound is p_upper.  With a supplied p_lower each of the
two bounds spends alpha/2 + alpha/3, so over K seeds its violations follow
at most Bin(K, 5 alpha / 6).  A fixture fails when either count exceeds
that law's (1 - 1e-6)-quantile.  alpha = 0.2 makes the audit sensitive to
the rate, not only to gross faults.
"""

import math

import numpy as np
import pytest
from scipy.stats import binom

from invarcert.geometry import GroupKind, PointCloud, rot2
from invarcert.mc import McConfig
from invarcert.tight import certify_tight_and_multiclass
from reference import rot3_zyx

SEEDS = range(30)
N_POINTS = 16
P_LOWER, P_UPPER = 0.9, 0.05
SLACK = 1e-12


def _fixture(kind, group, dim, scale, seed):
    """|X|^2 / sigma^2 = scale at sigma = 1, so |X||X'| / sigma^2 = scale
    for X' = X and for an exact SO rotation."""
    rng = np.random.default_rng(seed)
    x = rng.standard_normal((N_POINTS, dim))
    x *= math.sqrt(scale) / np.linalg.norm(x)
    if kind == "same":
        return PointCloud(x), PointCloud(x.copy())
    r = rot2(rng.uniform(0.0, 2.0 * math.pi)) if dim == 2 else rot3_zyx(rng.uniform(-math.pi, math.pi, 3))
    xp = x @ r.T
    if group is GroupKind.ROTO_TRANSLATION:
        xp = xp + rng.standard_normal(dim)
    return PointCloud(x), PointCloud(xp)


def violations(kind, group, dim, scale, alpha):
    """Seeds whose tight lower bound exceeds p, and seeds whose multi-class
    upper bound falls below p_upper."""
    mc = McConfig(n2=1000, n3=1000, alpha=alpha)
    above, below = 0, 0
    for seed in SEEDS:
        x, xp = _fixture(kind, group, dim, scale, seed)
        tight, multi = certify_tight_and_multiclass(
            group, x, xp, P_LOWER, 1.0, mc, seed, p_upper=P_UPPER
        )
        (note,) = [n for n in multi.notes if n.startswith("competitor-upper=")]
        upper = float(note.partition("=")[2])
        above += tight.bound_value > P_LOWER + SLACK
        below += upper < P_UPPER - SLACK
    return above, below


def _limit(alpha):
    return int(binom.ppf(1.0 - 1e-6, len(SEEDS), alpha / 2.0 + alpha / 3.0))


CASES = [
    (kind, group, dim, scale, alpha)
    for kind in ("same", "rotation")
    for group in (GroupKind.ROTATION, GroupKind.ROTO_TRANSLATION)
    for dim in (2, 3)
    for scale in (10.0, 1e3, 1e5)
    for alpha in (1e-3, 0.2)
]
# From |X||X'| / sigma^2 = 1e16 the residual d of an exact rotation is
# rounding noise above 1e-8 sigma, so the orbit floor lies further than
# _FLOOR_SKIP below p and the Monte-Carlo stage runs on a statistic that is
# rounding noise too: on 2-D rotations 12-18 of 30 seeds violate each bound.
FAR_CASES = [
    (kind, group, 2, scale, 1e-3)
    for kind in ("same", "rotation")
    for group in (GroupKind.ROTATION, GroupKind.ROTO_TRANSLATION)
    for scale in (1e16, 1e20)
]
_FAULT = pytest.mark.xfail(
    strict=True,
    reason="ROADMAP item 9: the statistic of a near-orbit problem is rounding noise",
)


@pytest.mark.parametrize(
    "kind, group, dim, scale, alpha",
    CASES + [pytest.param(*case, marks=[_FAULT] * (case[0] == "rotation")) for case in FAR_CASES],
    ids=[f"{k}-{g.value}{d}-{s:g}-{a:g}" for k, g, d, s, a in CASES + FAR_CASES],
)
def test_orbit_member_coverage(kind, group, dim, scale, alpha):
    above, below = violations(kind, group, dim, scale, alpha)
    limit = _limit(alpha)
    assert above <= limit and below <= limit, (above, below, limit)

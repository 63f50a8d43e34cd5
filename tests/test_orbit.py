"""Orbit projections and the orbit-based certificate."""

import math

import numpy as np
import pytest

import invarcert.orbit
from invarcert.geometry import GroupKind, PointCloud, center, rot2
from invarcert.numerics import NumericalFailure
from invarcert.orbit import (
    blackbox_radius,
    certify_orbit,
    project,
    project_orthogonal,
    project_permutation,
    project_registration_upper,
    project_rotation,
    project_roto_translation,
    project_translation,
)
from reference import (
    brute_force_permutation,
    brute_force_procrustes_2d,
    random_group_element,
    rot3_zyx,
)

# oracle: sigma * (bisection quantile on erf), frozen
RADIUS_08_05 = 0.4208106167864571
RADIUS_0999_1 = 3.0902323061678136


def _random_pair(rng, n, d, scale=0.3):
    x = PointCloud(rng.standard_normal((n, d)))
    xp = PointCloud(x.data + scale * rng.standard_normal((n, d)))
    return x, xp


def _translation_grid_oracle(x, xp, radius=3.0, rounds=4, width=11):
    """Coarse-to-fine grid over the translation vector."""
    d = x.dim
    best_b = np.zeros(d)
    span = radius
    for _ in range(rounds):
        axes = [np.linspace(b - span, b + span, width) for b in best_b]
        mesh = np.stack(np.meshgrid(*axes, indexing="ij"), axis=-1).reshape(-1, d)
        residuals = np.linalg.norm(
            xp.data[None] + mesh[:, None, :] - x.data[None], axis=(1, 2)
        )
        best_b = mesh[int(np.argmin(residuals))]
        span /= width - 1
    return float(
        np.linalg.norm(xp.data + best_b - x.data)
    )


def _se2_grid_oracle(x, xp):
    """Nested grid over (theta, b): coarse-to-fine refinement of all three."""
    best = (0.0, 0.0, 0.0)
    spans = (math.pi, 3.0, 3.0)
    for _ in range(5):
        thetas = np.linspace(best[0] - spans[0], best[0] + spans[0], 25)
        b1s = np.linspace(best[1] - spans[1], best[1] + spans[1], 13)
        b2s = np.linspace(best[2] - spans[2], best[2] + spans[2], 13)
        best_val = math.inf
        for theta in thetas:
            moved = xp.data @ rot2(theta).T
            for b1 in b1s:
                diffs0 = moved[:, 0] + b1 - x.data[:, 0]
                for b2 in b2s:
                    diffs1 = moved[:, 1] + b2 - x.data[:, 1]
                    val = float(np.sqrt(np.sum(diffs0**2) + np.sum(diffs1**2)))
                    if val < best_val:
                        best_val = val
                        best = (theta, b1, b2)
        spans = tuple(s / 8 for s in spans)
    return best_val


class TestBlackboxRadius:
    def test_at_half(self):
        assert blackbox_radius(0.5, 1.0) == 0.0

    def test_frozen_values(self):
        assert blackbox_radius(0.8, 0.5) == pytest.approx(RADIUS_08_05, abs=1e-4)
        assert blackbox_radius(0.999, 1.0) == pytest.approx(RADIUS_0999_1, abs=1e-3)

    def test_negative_below_half(self):
        assert blackbox_radius(0.3, 1.0) < 0.0

    def test_domain(self):
        with pytest.raises(ValueError):
            blackbox_radius(0.0, 1.0)
        with pytest.raises(ValueError):
            blackbox_radius(0.8, 0.0)


class TestProjectTranslation:
    def test_pure_translation(self):
        rng = np.random.default_rng(0)
        x = PointCloud(rng.standard_normal((5, 3)))
        xp = PointCloud(x.data + np.array([1.0, -2.0, 0.5]))
        proj = project_translation(x, xp)
        assert proj.residual == pytest.approx(0.0, abs=1e-12)
        assert np.allclose(proj.translation, [-1.0, 2.0, -0.5])

    def test_centered_delta_unchanged(self):
        rng = np.random.default_rng(1)
        x = PointCloud(rng.standard_normal((6, 2)))
        delta = rng.standard_normal((6, 2))
        delta -= delta.mean(axis=0)
        xp = PointCloud(x.data + delta)
        assert project_translation(x, xp).residual == pytest.approx(
            float(np.linalg.norm(delta)), rel=1e-12
        )

    def test_matches_grid_oracle(self):
        rng = np.random.default_rng(2)
        x, xp = _random_pair(rng, 6, 3, scale=0.5)
        closed = project_translation(x, xp).residual
        grid = _translation_grid_oracle(x, xp)
        assert abs(closed - grid) < 1e-6
        assert closed <= grid + 1e-12


class TestProjectRotation:
    def test_orbit_member(self):
        rng = np.random.default_rng(3)
        x = PointCloud(rng.standard_normal((6, 2)))
        theta = 1.234
        xp = PointCloud(x.data @ rot2(theta).T)
        proj = project_rotation(x, xp)
        assert proj.residual <= 1e-10
        # recovered rotation acts identically on X' (up to stabilizer)
        assert np.max(np.abs(xp.data @ proj.rotation.T - x.data)) < 1e-10
        assert abs(np.linalg.det(proj.rotation) - 1.0) < 1e-10

    def test_3d_orbit_member(self):
        rng = np.random.default_rng(4)
        x = PointCloud(rng.standard_normal((7, 3)))
        xp = PointCloud(x.data @ rot3_zyx([0.5, -0.4, 1.1]).T)
        assert project_rotation(x, xp).residual <= 1e-10

    def test_matches_angle_grid(self):
        rng = np.random.default_rng(5)
        x, xp = _random_pair(rng, 5, 2)
        svd = project_rotation(x, xp).residual
        grid = brute_force_procrustes_2d(x, xp, 100_000)
        assert abs(svd - grid) < 1e-5
        assert svd <= grid + 1e-9

    def test_reflection_not_in_so2(self):
        rng = np.random.default_rng(6)
        x = PointCloud(rng.standard_normal((5, 2)))
        xr = PointCloud(x.data @ np.diag([1.0, -1.0]))
        assert project_rotation(x, xr).residual > 0.1
        assert project_orthogonal(x, xr).residual <= 1e-10


class TestProjectOrthogonal:
    def test_never_above_rotation(self):
        rng = np.random.default_rng(7)
        for _ in range(20):
            x, xp = _random_pair(rng, 5, 2, scale=1.0)
            assert (
                project_orthogonal(x, xp).residual
                <= project_rotation(x, xp).residual + 1e-12
            )

    def test_matches_reflection_grid(self):
        rng = np.random.default_rng(8)
        x, xp = _random_pair(rng, 5, 2)
        best = math.inf
        flip = np.diag([1.0, -1.0])
        for theta in np.linspace(0.0, 2.0 * math.pi, 100_000, endpoint=False):
            for mat in (rot2(theta), rot2(theta) @ flip):
                best = min(best, float(np.linalg.norm(xp.data @ mat.T - x.data)))
        assert abs(project_orthogonal(x, xp).residual - best) < 1e-5


class TestProjectRotoTranslation:
    def test_orbit_member(self):
        rng = np.random.default_rng(9)
        x = PointCloud(rng.standard_normal((6, 2)))
        xp = PointCloud(x.data @ rot2(0.7).T + np.array([2.0, -1.0]))
        proj = project_roto_translation(x, xp)
        assert proj.residual <= 1e-10
        moved = xp.data @ proj.rotation.T + proj.translation
        assert np.max(np.abs(moved - x.data)) < 1e-9

    def test_centered_reduces_to_rotation(self):
        rng = np.random.default_rng(10)
        x, xp = _random_pair(rng, 6, 3)
        xc, xpc = center(x), center(xp)
        assert project_roto_translation(xc, xpc).residual == pytest.approx(
            project_rotation(xc, xpc).residual, abs=1e-10
        )

    def test_equals_rotation_of_centered(self):
        rng = np.random.default_rng(11)
        x, xp = _random_pair(rng, 5, 2, scale=0.8)
        assert project_roto_translation(x, xp).residual == pytest.approx(
            project_rotation(center(x), center(xp)).residual, abs=1e-10
        )

    def test_matches_joint_grid(self):
        rng = np.random.default_rng(12)
        x, xp = _random_pair(rng, 4, 2, scale=0.6)
        kabsch = project_roto_translation(x, xp).residual
        grid = _se2_grid_oracle(x, xp)
        assert abs(kabsch - grid) < 1e-4
        assert kabsch <= grid + 1e-9


class TestProjectPermutation:
    def test_permuted_rows(self):
        rng = np.random.default_rng(13)
        x = PointCloud(rng.standard_normal((6, 3)))
        perm = rng.permutation(6)
        xp = PointCloud(x.data[perm])
        proj = project_permutation(x, xp)
        assert proj.residual <= 1e-12
        assert np.array_equal(xp.data[proj.permutation], x.data)

    def test_matches_exhaustive(self):
        rng = np.random.default_rng(14)
        for _ in range(10):
            x = PointCloud(rng.standard_normal((6, 2)))
            xp = PointCloud(rng.standard_normal((6, 2)))
            assert project_permutation(x, xp).residual == pytest.approx(
                brute_force_permutation(x, xp), abs=1e-12
            )

    @pytest.mark.parametrize("dim", [2, 3])
    @pytest.mark.parametrize("n", [1, 2, 17, 256, 300, 1000])
    def test_cost_matches_broadcast_formula(self, monkeypatch, n, dim):
        # the plane-by-plane cost must keep the bits of the (N, N, D) formula,
        # so the solver sees the same matrix and ties break the same way; 300
        # and 1000 rows span several scratch row blocks and end in a ragged one
        seen = []
        solve = invarcert.orbit.linear_sum_assignment

        def capture(cost):
            seen.append(cost.copy())
            return solve(cost)

        monkeypatch.setattr(invarcert.orbit, "linear_sum_assignment", capture)
        rng = np.random.default_rng(100 * n + dim)
        # coordinates spread over four decades
        x = rng.standard_normal((n, dim)) * 10.0 ** rng.uniform(-2, 2, (n, dim))
        xp = rng.standard_normal((n, dim)) * 10.0 ** rng.uniform(-2, 2, (n, dim))
        proj = project_permutation(PointCloud(x), PointCloud(xp))
        diff = xp[:, None, :] - x[None, :, :]
        expected = np.sum(diff * diff, axis=2)
        assert len(seen) == 1
        assert np.array_equal(seen[0], expected)
        matched = expected[proj.permutation, np.arange(n)].sum()
        assert proj.residual == pytest.approx(math.sqrt(matched), rel=1e-12)

    def test_ties_have_unique_residual(self):
        x = PointCloud(np.array([[1.0, 0.0], [1.0, 0.0], [0.0, 2.0]]))
        xp = PointCloud(np.array([[0.0, 2.0], [1.0, 0.0], [1.0, 0.0]]))
        proj = project_permutation(x, xp)
        assert proj.residual <= 1e-12
        assert proj.residual == pytest.approx(brute_force_permutation(x, xp), abs=1e-12)


class TestRegistrationUpper:
    def test_exact_orbit_member_converges(self):
        rng = np.random.default_rng(15)
        x = PointCloud(rng.standard_normal((7, 3)))
        r = rot3_zyx([0.3, 0.15, -0.25])
        perm = rng.permutation(7)
        xp = PointCloud((x.data @ r.T + np.array([0.4, -0.8, 0.2]))[perm])
        proj = project_registration_upper(x, xp, 50)
        assert proj.residual <= 1e-8
        assert proj.exact is False

    def test_monotone_in_iterations(self):
        rng = np.random.default_rng(16)
        x = PointCloud(rng.standard_normal((8, 2)))
        xp = PointCloud(rng.standard_normal((8, 2)))
        one = project_registration_upper(x, xp, 1).residual
        two = project_registration_upper(x, xp, 2).residual
        fifty = project_registration_upper(x, xp, 50).residual
        assert one >= two - 1e-12
        assert two >= fifty - 1e-12

    def test_never_above_identity_distance(self):
        rng = np.random.default_rng(17)
        for _ in range(10):
            x, xp = _random_pair(rng, 6, 3, scale=1.5)
            proj = project_registration_upper(x, xp, 20)
            assert proj.residual <= float(np.linalg.norm(xp.data - x.data)) + 1e-12

    def test_transform_reproduces_residual(self):
        rng = np.random.default_rng(18)
        x, xp = _random_pair(rng, 6, 2, scale=0.7)
        proj = project_registration_upper(x, xp, 30)
        moved = (xp.data @ proj.rotation.T + proj.translation)[proj.permutation]
        assert float(np.linalg.norm(moved - x.data)) == pytest.approx(
            proj.residual, abs=1e-9
        )


class TestGroupNesting:
    def test_larger_group_smaller_residual(self):
        rng = np.random.default_rng(19)
        for _ in range(15):
            x, xp = _random_pair(rng, 6, 2, scale=0.8)
            delta = float(np.linalg.norm(xp.data - x.data))
            r_so = project_rotation(x, xp).residual
            r_o = project_orthogonal(x, xp).residual
            r_se = project_roto_translation(x, xp).residual
            assert r_se <= r_so + 1e-9
            assert r_o <= r_so + 1e-9
            assert r_so <= delta + 1e-9

    @pytest.mark.parametrize("dim", [2, 3])
    def test_assignment_residual_order(self, dim):
        # d_SxSE <= d_S, since the registration's first step is the S
        # projection and then an SE step; d_S <= ||X' - X||, since the
        # identity is an assignment; d_SE <= d_T, since T is a subgroup of SE
        rng = np.random.default_rng(30 + dim)
        n = 12
        for trial in range(16):
            x, xp = _random_pair(rng, n, dim, scale=0.8)
            if trial % 2:
                xp = PointCloud(xp.data[rng.permutation(n)])
            delta = float(np.linalg.norm(xp.data - x.data))
            d_s = project_permutation(x, xp).residual
            d_t = project_translation(x, xp).residual
            assert project_registration_upper(x, xp).residual <= d_s * (1 + 1e-9)
            assert d_s <= delta * (1 + 1e-9)
            assert project_roto_translation(x, xp).residual <= d_t * (1 + 1e-9)


class TestCertifyOrbit:
    def test_rotation_member_certified(self):
        rng = np.random.default_rng(20)
        x = PointCloud(rng.standard_normal((5, 2)))
        xp = PointCloud(x.data @ rot2(2.5).T)
        out = certify_orbit(GroupKind.ROTATION, x, xp, 0.6, 0.5)
        assert out.certified
        assert out.bound_value > 0.5

    def test_threshold_margin(self):
        # residual 0.41 < radius 0.42081 at p = 0.8, sigma = 0.5: certified
        x = PointCloud(np.array([[1.0, 0.0], [-1.0, 0.0]]))
        delta = np.array([[0.0, 1.0], [0.0, -1.0]])
        delta *= 0.41 / np.linalg.norm(delta)
        xp = PointCloud(x.data + delta)
        out = certify_orbit(GroupKind.TRANSLATION, x, xp, 0.8, 0.5)
        assert out.residual == pytest.approx(0.41, abs=1e-12)
        assert out.certified
        assert out.radius == pytest.approx(RADIUS_08_05, abs=1e-4)
        assert out.margin == pytest.approx(RADIUS_08_05 - 0.41, abs=1e-4)
        assert out.certified == (out.margin > 0)

    def test_low_probability_never_certifies(self):
        rng = np.random.default_rng(21)
        x, xp = _random_pair(rng, 4, 2)
        out = certify_orbit(GroupKind.ROTATION, x, PointCloud(x.data), 0.4, 0.5)
        assert not out.certified
        assert out.radius < 0.0
        assert "radius-nonpositive" in out.notes

    def test_exactly_half_not_certified(self):
        # radius 0 with strict comparison certifies nothing, even at residual 0
        x = PointCloud(np.array([[1.0, 0.0]]))
        out = certify_orbit(GroupKind.ROTATION, x, x, 0.5, 1.0)
        assert not out.certified

    def test_orbit_soundness_under_group_action(self):
        rng = np.random.default_rng(22)
        for kind in GroupKind:
            x, xp = _random_pair(rng, 5, 2, scale=0.6)
            base = certify_orbit(kind, x, xp, 0.85, 0.5)
            for k in range(5):
                t = random_group_element(kind, x.dim, rng, x.n_points)
                moved = certify_orbit(kind, x, PointCloud(t(xp.data)), 0.85, 0.5)
                if kind is GroupKind.PERMUTATION_ROTO_TRANSLATION:
                    # approximate projection: verdicts may differ, bound is sound
                    continue
                assert moved.certified == base.certified
                assert moved.residual == pytest.approx(base.residual, abs=1e-8)

    def test_approximate_group_flagged(self):
        rng = np.random.default_rng(23)
        x, xp = _random_pair(rng, 5, 2)
        out = certify_orbit(
            GroupKind.PERMUTATION_ROTO_TRANSLATION, x, xp, 0.9, 0.5
        )
        assert "approximate-registration-upper-bound" in out.notes

    def test_project_dispatch_matches(self):
        rng = np.random.default_rng(24)
        x, xp = _random_pair(rng, 5, 3)
        assert project(GroupKind.ROTO_TRANSLATION, x, xp).residual == pytest.approx(
            project_roto_translation(x, xp).residual, abs=1e-12
        )

    def test_none_has_no_orbit_certificate(self):
        x = PointCloud(np.eye(2))
        with pytest.raises(ValueError, match="certify_orbit: unsupported group None"):
            certify_orbit(None, x, x, 0.8, 0.5)

    def test_project_none_is_the_identity_distance(self):
        rng = np.random.default_rng(25)
        x, xp = _random_pair(rng, 5, 3)
        proj = project(None, x, xp)
        assert proj.residual == float(np.linalg.norm(xp.data - x.data))
        assert proj.exact and proj.transform_description() == {}
        with pytest.raises(ValueError, match="different shapes"):
            project(None, x, PointCloud(xp.data[:4]))


_DIFFERENCE = "the difference X' - X is not finite"
_ALIGNED = "the residual X' R\\^T - X is not finite"


@pytest.mark.parametrize(
    "group, clean, perturbed, message",
    [
        # 1e308 - (-1e308) overflows
        *[(g, [[-1e308, 0.0], [0.0, 0.0]], [[1e308, 0.0], [0.0, 0.0]], _DIFFERENCE)
          for g in (None, GroupKind.TRANSLATION, GroupKind.PERMUTATION_ROTO_TRANSLATION)],
        # (X')^T X is finite, but the rotated 1.5e308 x 1.5e308 row is not
        *[(g, [[1e-300, 0.0, 0.0], [0.0, 1e-300, 0.0]], [[1.5e308, 1.5e308, 0.0], [0.0] * 3],
           _ALIGNED) for g in (GroupKind.ROTATION, GroupKind.ORTHOGONAL)],
    ],
    ids=["None", "T", "SxSE", "SO", "O"],
)
def test_overflowing_difference_is_numerical_failure(group, clean, perturbed, message):
    # the suite makes a RuntimeWarning an error
    with pytest.raises(NumericalFailure, match=message):
        project(group, PointCloud(np.array(clean)), PointCloud(np.array(perturbed)))

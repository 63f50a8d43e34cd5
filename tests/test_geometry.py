"""Point-cloud algebra, rotations and orientation parameters."""

import math

import numpy as np
import pytest

from invarcert.geometry import (
    EpsilonParams,
    PointCloud,
    adversarial_rotation_locus,
    center,
    epsilon_params,
    load_points_csv,
    rot2,
    rotate_quarter_turn_back,
    save_points_csv,
)
from reference import frobenius_inner, rot3_zyx


class TestFrobenius:
    def test_self_inner_is_squared_norm(self):
        x = PointCloud(np.array([[1.0, 2.0], [3.0, -1.0]]))
        assert frobenius_inner(x, x) == pytest.approx(x.norm() ** 2, rel=1e-14)

    def test_orthogonal_pattern(self):
        a = np.array([[1.0, 0.0], [0.0, 1.0]])
        b = np.array([[0.0, 1.0], [1.0, 0.0]])
        assert frobenius_inner(a, b) == 0.0

    def test_matches_elementwise_loop(self):
        rng = np.random.default_rng(0)
        a = rng.standard_normal((5, 3))
        b = rng.standard_normal((5, 3))
        naive = sum(a[n, d] * b[n, d] for n in range(5) for d in range(3))
        assert frobenius_inner(a, b) == pytest.approx(naive, abs=1e-12)

    def test_shape_mismatch(self):
        with pytest.raises(ValueError):
            frobenius_inner(np.ones((2, 2)), np.ones((3, 2)))


class TestCenter:
    def test_single_point(self):
        assert np.array_equal(center(PointCloud(np.array([[3.0, 4.0]]))).data, [[0.0, 0.0]])

    def test_idempotent(self):
        rng = np.random.default_rng(1)
        x = center(PointCloud(rng.standard_normal((7, 3))))
        again = center(x)
        assert np.max(np.abs(again.data - x.data)) < 1e-12
        assert np.max(np.abs(x.data.sum(axis=0))) < 1e-10

    def test_two_points(self):
        out = center(PointCloud(np.array([[0.0, 0.0], [2.0, 0.0]])))
        assert np.allclose(out.data, [[-1.0, 0.0], [1.0, 0.0]])

    def test_norm_nonincreasing(self):
        rng = np.random.default_rng(2)
        for _ in range(20):
            x = PointCloud(rng.standard_normal((6, 2)) + rng.uniform(-3, 3, size=2))
            assert center(x).norm() <= x.norm() + 1e-12


class TestRotations:
    def test_rot2_identity(self):
        assert np.allclose(rot2(0.0), np.eye(2))

    def test_rot2_quarter_turn(self):
        assert np.allclose(rot2(math.pi / 2), [[0.0, -1.0], [1.0, 0.0]], atol=1e-15)

    def test_rot2_inverse_composition(self):
        theta = 0.73
        assert np.max(np.abs(rot2(theta) @ rot2(-theta) - np.eye(2))) < 1e-12

    def test_rot2_is_special_orthogonal(self):
        r = rot2(2.1)
        assert abs(np.linalg.det(r) - 1.0) < 1e-12
        assert np.max(np.abs(r.T @ r - np.eye(2))) < 1e-12

    def test_rot3_identity(self):
        assert np.allclose(rot3_zyx([0.0, 0.0, 0.0]), np.eye(3))

    def test_rot3_z_block_matches_rot2(self):
        r = rot3_zyx([math.pi / 2, 0.0, 0.0])
        assert np.allclose(r[:2, :2], rot2(math.pi / 2), atol=1e-15)
        assert np.allclose(r[2], [0.0, 0.0, 1.0])

    def test_rot3_matches_elemental_product(self):
        rng = np.random.default_rng(3)
        for _ in range(30):
            w1, w2, w3 = rng.uniform(-math.pi, math.pi, 3)
            rz = np.array(
                [
                    [math.cos(w1), -math.sin(w1), 0.0],
                    [math.sin(w1), math.cos(w1), 0.0],
                    [0.0, 0.0, 1.0],
                ]
            )
            ry = np.array(
                [
                    [math.cos(w2), 0.0, math.sin(w2)],
                    [0.0, 1.0, 0.0],
                    [-math.sin(w2), 0.0, math.cos(w2)],
                ]
            )
            rx = np.array(
                [
                    [1.0, 0.0, 0.0],
                    [0.0, math.cos(w3), -math.sin(w3)],
                    [0.0, math.sin(w3), math.cos(w3)],
                ]
            )
            assert np.max(np.abs(rot3_zyx([w1, w2, w3]) - rz @ ry @ rx)) < 1e-13

    def test_rot3_orthogonal_det_one(self):
        r = rot3_zyx([0.3, -0.8, 1.9])
        assert abs(np.linalg.det(r) - 1.0) < 1e-12
        assert np.max(np.abs(r.T @ r - np.eye(3))) < 1e-12


class TestEpsilonParams:
    def test_self_aligned_perturbation(self):
        rng = np.random.default_rng(5)
        x = PointCloud(rng.standard_normal((6, 2)))
        c = 0.37
        eps = epsilon_params(x, c * x.data)
        assert eps.eps1 == pytest.approx(c * x.norm() ** 2, rel=1e-12)
        assert eps.eps2 == pytest.approx(0.0, abs=1e-12)

    def test_adversarial_rotation_closed_form(self):
        rng = np.random.default_rng(6)
        for theta in np.linspace(-3.0, 3.0, 25):
            x = PointCloud(rng.standard_normal((5, 2)))
            delta = x.data @ rot2(theta).T - x.data
            eps = epsilon_params(x, delta)
            nx2 = x.norm() ** 2
            assert eps.eps1 == pytest.approx(nx2 * (math.cos(theta) - 1.0), abs=1e-10)
            assert eps.eps2 == pytest.approx(-nx2 * math.sin(theta), abs=1e-10)
            # eps1 = -||Delta||^2 / 2 on the rotation locus
            assert eps.eps1 == pytest.approx(-0.5 * np.linalg.norm(delta) ** 2, abs=1e-10)

    def test_unit_norm_rotation(self):
        x = PointCloud(np.array([[1.0, 0.0]]))
        theta = 0.9
        delta = x.data @ rot2(theta).T - x.data
        eps = epsilon_params(x, delta)
        assert eps.eps1 == pytest.approx(math.cos(theta) - 1.0, abs=1e-12)
        assert eps.eps2 == pytest.approx(-math.sin(theta), abs=1e-12)

    def test_orientation_bound_invariant(self):
        rng = np.random.default_rng(7)
        for _ in range(50):
            x = PointCloud(rng.standard_normal((4, 2)))
            d = rng.standard_normal((4, 2))
            eps = epsilon_params(x, d)
            assert math.hypot(eps.eps1, eps.eps2) <= eps.norm_x * eps.norm_delta + 1e-9

    def test_rejects_3d(self):
        x = PointCloud(np.zeros((2, 3)))
        with pytest.raises(ValueError):
            epsilon_params(x, np.zeros((2, 3)))

    def test_quarter_turn_back(self):
        data = np.array([[1.0, 2.0], [-3.0, 0.5]])
        manual = data @ rot2(-math.pi / 2).T
        assert np.max(np.abs(rotate_quarter_turn_back(data) - manual)) < 1e-15

    def test_invariant_enforced(self):
        with pytest.raises(ValueError):
            EpsilonParams(eps1=2.0, eps2=0.0, norm_x=1.0, norm_delta=1.0)


class TestAdversarialRotationLocus:
    def test_half_turn_single_point(self):
        loci = adversarial_rotation_locus(1.0, 2.0)
        assert len(loci) == 1
        assert loci[0].eps1 == pytest.approx(-2.0)
        assert loci[0].eps2 == 0.0

    def test_infeasible(self):
        assert adversarial_rotation_locus(1.0, 3.0) == []

    def test_quarter_turn_pair(self):
        loci = adversarial_rotation_locus(1.0, math.sqrt(2.0))
        assert len(loci) == 2
        assert loci[0].eps1 == pytest.approx(-1.0, rel=1e-12)
        assert sorted(l.eps2 for l in loci) == pytest.approx([-1.0, 1.0], rel=1e-12)

    def test_matches_rotation_fixture(self):
        rng = np.random.default_rng(8)
        x = PointCloud(rng.standard_normal((6, 2)))
        theta = 1.1
        delta = x.data @ rot2(theta).T - x.data
        eps = epsilon_params(x, delta)
        loci = adversarial_rotation_locus(x.norm(), float(np.linalg.norm(delta)))
        best = min(loci, key=lambda l: abs(l.eps2 - eps.eps2))
        assert best.eps1 == pytest.approx(eps.eps1, abs=1e-9)
        assert best.eps2 == pytest.approx(eps.eps2, abs=1e-9)

    def test_rejects_negative(self):
        with pytest.raises(ValueError):
            adversarial_rotation_locus(-1.0, 0.5)


class TestTypesAndCsv:
    def test_point_cloud_validation(self):
        with pytest.raises(ValueError):
            PointCloud(np.zeros((0, 2)))
        with pytest.raises(ValueError):
            PointCloud(np.zeros((3, 4)))
        with pytest.raises(ValueError):
            PointCloud(np.array([[1.0, np.nan]]))

    def test_csv_roundtrip_full_precision(self, tmp_path):
        rng = np.random.default_rng(9)
        x = PointCloud(rng.standard_normal((8, 3)) * 1e3)
        path = tmp_path / "cloud.csv"
        save_points_csv(path, x)
        again = load_points_csv(path)
        assert np.array_equal(again.data, x.data)

    def test_csv_rejects_ragged(self, tmp_path):
        path = tmp_path / "bad.csv"
        path.write_text("1.0,2.0\n3.0\n")
        with pytest.raises(ValueError, match="ragged"):
            load_points_csv(path)

    def test_csv_rejects_nonnumeric(self, tmp_path):
        path = tmp_path / "bad.csv"
        path.write_text("1.0,x\n")
        with pytest.raises(ValueError):
            load_points_csv(path)

    def test_csv_byte_order_mark_is_skipped(self, tmp_path):
        plain = b"1.0,2.0\r\n-3.5,4.25\n"
        with_bom = tmp_path / "bom.csv"
        with_bom.write_bytes(b"\xef\xbb\xbf" + plain)
        without = tmp_path / "plain.csv"
        without.write_bytes(plain)
        expected = load_points_csv(without).data
        assert np.array_equal(expected, [[1.0, 2.0], [-3.5, 4.25]])
        assert np.array_equal(load_points_csv(with_bom).data, expected)
        # content already read parses like the file it came from
        assert np.array_equal(load_points_csv(with_bom, with_bom.read_bytes()).data, expected)

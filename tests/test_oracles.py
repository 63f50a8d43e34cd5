"""Brute-force references and synthetic invariant classifiers."""

import dataclasses
import math
import sys
import threading

import numpy as np
import pytest

from invarcert.geometry import GroupKind, PointCloud, rot2
from invarcert.numerics import log_bessel_i0
from invarcert import oracles
from invarcert.oracles import SyntheticClassifier, make_classifier
from invarcert.orbit import project_permutation, project_rotation
from reference import (
    brute_force_permutation,
    brute_force_procrustes_2d,
    haar_oracle_so2,
    haar_oracle_so3,
    invariance_audit,
    reference_probability,
    so3_log_beta_hat,
)

# oracle: bisection on exp(-t)(1+t) = 1/2 for the chi-square(4) median
CHI2_4_MEDIAN = 3.356693980033321


class TestSyntheticClassifiers:
    def test_norm_threshold_invariance_audit(self):
        rng = np.random.default_rng(0)
        for dim in (2, 3):
            g = SyntheticClassifier("norm", 1.5)
            x = PointCloud(rng.standard_normal((6, dim)))
            assert invariance_audit(g, x, 1000, seed=1) == 0

    def test_norm_threshold_also_permutation_orthogonal_invariant(self):
        rng = np.random.default_rng(1)
        x = PointCloud(rng.standard_normal((5, 2)))
        for kind in (GroupKind.PERMUTATION, GroupKind.ORTHOGONAL):
            g = SyntheticClassifier("norm", 1.5)
            assert invariance_audit(g, x, 1000, seed=2, group=kind) == 0

    def test_centered_norm_invariance_audit(self):
        rng = np.random.default_rng(2)
        g = SyntheticClassifier("centered-norm", 2.0)
        x = PointCloud(rng.standard_normal((5, 3)))
        assert invariance_audit(g, x, 1000, seed=3) == 0

    def test_pairwise_centroid_invariance_audit(self):
        rng = np.random.default_rng(3)
        ref = PointCloud(rng.standard_normal((5, 2)))
        g = make_classifier("pairwise-centroid", 0.7, ref)
        assert g.invariance is GroupKind.PERMUTATION_ROTO_TRANSLATION
        assert invariance_audit(g, ref, 1000, seed=4) == 0

    def test_kind_fixes_invariance(self):
        assert SyntheticClassifier("norm", 1.0).invariance is GroupKind.ROTATION
        assert SyntheticClassifier("centered-norm", 1.0).invariance is GroupKind.ROTO_TRANSLATION
        assert "invariance" not in {f.name for f in dataclasses.fields(SyntheticClassifier)}

    def test_unknown_kind_rejected_at_construction(self):
        with pytest.raises(ValueError, match="unknown kind 'cube'"):
            SyntheticClassifier("cube", 1.0)
        with pytest.raises(ValueError, match="unknown kind 'cube'"):
            make_classifier("cube", 1.0, PointCloud(np.eye(2)))

    @pytest.mark.parametrize("signature", [None, np.zeros((2, 3)), np.array([0.0, np.nan])])
    def test_pairwise_centroid_needs_finite_1d_signature(self, signature):
        with pytest.raises(ValueError, match="finite 1-D signature"):
            SyntheticClassifier("pairwise-centroid", 1.0, signature)

    @pytest.mark.parametrize("kind", ["norm", "centered-norm"])
    def test_norm_kinds_reject_a_signature(self, kind):
        with pytest.raises(ValueError, match="takes no signature"):
            SyntheticClassifier(kind, 1.0, np.zeros(3))

    @pytest.mark.parametrize("length", [3, 0])
    def test_pairwise_centroid_signature_length_checked(self, length):
        g = SyntheticClassifier("pairwise-centroid", 1.0, np.zeros(length))
        with pytest.raises(ValueError, match=f"has length {length}, clouds of 4 points need 10"):
            g.predict_batch(np.zeros((1, 4, 2)))

    def test_pairwise_centroid_recognizes_reference(self):
        rng = np.random.default_rng(4)
        ref = PointCloud(rng.standard_normal((5, 3)))
        g = make_classifier("pairwise-centroid", 0.2, ref)
        assert g.predict(ref) == 1
        far = PointCloud(ref.data * 3.0)
        assert g.predict(far) == 0

    def test_pairwise_centroid_chunked_labels_match(self, monkeypatch):
        rng = np.random.default_rng(5)
        ref = PointCloud(rng.standard_normal((64, 2)))
        g = make_classifier("pairwise-centroid", 1.0, ref)
        batch = ref.data + 0.1 * rng.standard_normal((300, 64, 2))
        whole = g.predict_batch(batch)
        # 7 clouds a chunk, the last one short
        monkeypatch.setattr(oracles, "_PROFILE_BYTES", 7 * 8 * 2 * (64 * 63 // 2))
        chunked = g.predict_batch(batch)
        assert 0 < whole.sum() < 300
        assert np.array_equal(whole, chunked)


def reference_profile(batch):
    """Gather-and-norm form of the distance profile: (clouds, pairs, D)
    differences reduced by np.linalg.norm over the coordinate axis."""
    iu, ju = np.triu_indices(batch.shape[1], k=1)
    pair = np.linalg.norm(batch[:, iu, :] - batch[:, ju, :], axis=2)
    cent = np.linalg.norm(batch - batch.mean(axis=1, keepdims=True), axis=2)
    return np.concatenate([np.sort(pair, axis=1), np.sort(cent, axis=1)], axis=1)


def noisy_clouds(rng, rows, n, d):
    """Clouds over four decades of scale, with one repeated point a cloud so
    that zero distances and ties occur."""
    scale = 10.0 ** rng.uniform(-2.0, 2.0, size=(rows, 1, 1))
    batch = scale * rng.standard_normal((rows, n, d))
    if n > 1:
        batch[:, -1] = batch[:, 0]
    return batch


class TestDistanceProfile:
    """The per-plane profile equals the gather-and-norm reference bit for bit."""

    @pytest.mark.parametrize("d", [2, 3])
    @pytest.mark.parametrize("n", [1, 2, 3, 17, 64])
    def test_matches_reference(self, n, d):
        rng = np.random.default_rng(100 * n + d)
        batch = noisy_clouds(rng, 40, n, d)
        got = oracles._distance_profile(batch, np.triu_indices(n, k=1))
        assert got.shape == (40, n * (n - 1) // 2 + n)
        assert np.array_equal(got, reference_profile(batch))

    @pytest.mark.parametrize("d", [2, 3])
    def test_empty_batch(self, d):
        batch = np.empty((0, 5, d))
        got = oracles._distance_profile(batch, np.triu_indices(5, k=1))
        assert got.shape == (0, 15)
        assert np.array_equal(got, reference_profile(batch))
        g = make_classifier("pairwise-centroid", 1.0, PointCloud(np.ones((5, d))))
        labels = g.predict_batch(batch)
        assert labels.shape == (0,) and labels.dtype.kind == "i"

    def test_single_cloud(self):
        rng = np.random.default_rng(6)
        ref = PointCloud(rng.standard_normal((17, 2)))
        cloud = ref.data + 0.2 * rng.standard_normal((17, 2))
        signature = reference_profile(ref.data[None])
        distance = np.linalg.norm(reference_profile(cloud[None]) - signature, axis=1)[0]
        for tau, label in ((distance, 1), (np.nextafter(distance, 0.0), 0)):
            g = make_classifier("pairwise-centroid", tau, ref)
            assert np.array_equal(g.signature, signature[0])
            assert np.array_equal(g.predict_batch(cloud), [label])

    @pytest.mark.parametrize("d", [2, 3])
    @pytest.mark.parametrize("rows", [1, 7, 64, 1000])
    def test_chunk_boundaries(self, rows, d, monkeypatch):
        rng = np.random.default_rng(rows + d)
        ref = PointCloud(rng.standard_normal((64, d)))
        batch = ref.data + 0.1 * rng.standard_normal((150, 64, d))
        signature = reference_profile(ref.data[None])
        distance = np.linalg.norm(reference_profile(batch) - signature, axis=1)
        # tau at a sample's exact distance: one ulp more on any row flips it
        tau = float(np.sort(distance)[75])
        monkeypatch.setattr(oracles, "_PROFILE_BYTES", rows * 8 * d * (64 * 63 // 2))
        labels = make_classifier("pairwise-centroid", tau, ref).predict_batch(batch)
        assert np.array_equal(labels, (distance <= tau).astype(int))


def raising_profile(monkeypatch, on_caller, on_worker):
    """Make _distance_profile raise on the calling thread and/or the worker;
    returns the set of threads that profiled a chunk."""
    caller = threading.get_ident()
    profile = oracles._distance_profile
    seen = set()

    def wrapped(batch, pairs):
        ident = threading.get_ident()
        seen.add(ident)
        if on_caller and ident == caller:
            raise RuntimeError("chunk failed on the caller")
        if on_worker and ident != caller:
            raise RuntimeError("chunk failed on the worker")
        return profile(batch, pairs)

    monkeypatch.setattr(oracles, "_distance_profile", wrapped)
    return seen


class TestPredictBatchThreads:
    """A pairwise-centroid batch of several chunks is labelled on two threads."""

    @staticmethod
    def classifier_and_batch(clouds):
        # N = 64, D = 2: 32 clouds a chunk
        rng = np.random.default_rng(clouds)
        ref = PointCloud(rng.standard_normal((64, 2)))
        batch = ref.data + 0.1 * rng.standard_normal((clouds, 64, 2))
        distance = np.linalg.norm(reference_profile(batch) - reference_profile(ref.data[None]), axis=1)
        return make_classifier("pairwise-centroid", float(np.median(distance)), ref), batch

    def test_no_thread_outlives_a_call(self, monkeypatch):
        g, batch = self.classifier_and_batch(100)
        before = threading.active_count()
        seen = raising_profile(monkeypatch, on_caller=False, on_worker=False)
        g.predict_batch(batch)
        assert len(seen) == 2
        assert threading.active_count() == before
        raising_profile(monkeypatch, on_caller=False, on_worker=True)
        with pytest.raises(RuntimeError, match="on the worker"):
            g.predict_batch(batch)
        assert threading.active_count() == before

    def test_one_chunk_starts_no_worker(self, monkeypatch):
        g, batch = self.classifier_and_batch(32)
        seen = raising_profile(monkeypatch, on_caller=False, on_worker=False)
        g.predict_batch(batch)
        g.predict(PointCloud(batch[0]))
        assert seen == {threading.get_ident()}

    def test_caller_error_wins(self, monkeypatch):
        g, batch = self.classifier_and_batch(100)
        raising_profile(monkeypatch, on_caller=True, on_worker=True)
        with pytest.raises(RuntimeError, match="on the caller"):
            g.predict_batch(batch)

    def test_concurrent_callers_agree(self):
        # more callers than cores share one classifier, each with its own worker
        g, batch = self.classifier_and_batch(300)
        expected = g.predict_batch(batch)
        assert 0 < expected.sum() < 300
        results = [None] * 4

        def run(i):
            results[i] = g.predict_batch(batch)

        interval = sys.getswitchinterval()
        sys.setswitchinterval(1e-6)
        try:
            callers = [threading.Thread(target=run, args=(i,)) for i in range(4)]
            for caller in callers:
                caller.start()
            for caller in callers:
                caller.join(timeout=60)
        finally:
            sys.setswitchinterval(interval)
        assert not any(caller.is_alive() for caller in callers)
        assert all(np.array_equal(r, expected) for r in results)


class TestHaarOracleSo2:
    def test_zero_sample_constant_integrand(self):
        x = PointCloud(np.array([[1.0, 0.0], [0.0, 1.0]]))
        z = PointCloud(np.zeros((2, 2)))
        assert haar_oracle_so2(x, z, 1.0, 2000) == pytest.approx(
            math.log(2.0 * math.pi), abs=1e-10
        )

    def test_doubly_orthogonal_pair(self):
        # <Z, X> = <Z, X R(-pi/2)^T> = 0 makes the Bessel argument vanish
        x = PointCloud(np.array([[1.0, 0.0], [0.0, 0.0]]))
        z = PointCloud(np.array([[0.0, 0.0], [0.0, 1.0]]))
        assert haar_oracle_so2(x, z, 0.7, 2000) == pytest.approx(
            math.log(2.0 * math.pi), abs=1e-10
        )

    def test_matches_bessel_closed_form(self):
        rng = np.random.default_rng(5)
        for _ in range(10):
            x = PointCloud(rng.standard_normal((4, 2)))
            z = PointCloud(rng.standard_normal((4, 2)))
            sigma = float(rng.uniform(0.4, 1.5))
            oracle = haar_oracle_so2(x, z, sigma, 20_000)
            a = float(np.sum(z.data * x.data)) / sigma**2
            b = float(np.sum((x.data @ rot2(-math.pi / 2).T) * z.data)) / sigma**2
            closed = math.log(2.0 * math.pi) + log_bessel_i0(math.hypot(a, b))
            assert abs(oracle - closed) <= 1e-8 * abs(closed)

    def test_grid_floor(self):
        x = PointCloud(np.eye(2))
        with pytest.raises(ValueError):
            haar_oracle_so2(x, x, 1.0, 500)


class TestHaarOracleSo3:
    def test_zero_matrix_weighted_volume(self):
        got = haar_oracle_so3(np.zeros((3, 3)), 1.0, 200)
        assert got == pytest.approx(math.log(8.0 * math.pi**2), rel=1e-5)

    def test_matches_quadrature(self):
        rng = np.random.default_rng(6)
        for _ in range(3):
            m = rng.standard_normal((3, 3))
            sigma = float(rng.uniform(0.7, 1.3))
            oracle = haar_oracle_so3(m, sigma, 150)
            quad = so3_log_beta_hat(m, sigma) + math.log(2.0 * math.pi)
            assert abs(oracle - quad) <= 2e-5 * abs(oracle)

    def test_scaling_cancels_in_ratios(self):
        rng = np.random.default_rng(7)
        m1 = rng.standard_normal((3, 3))
        m2 = rng.standard_normal((3, 3))
        base = haar_oracle_so3(m1, 1.0, 100) - haar_oracle_so3(m2, 1.0, 100)
        # same matrices and noise expressed at a rescaled unit system
        c = 2.0
        scaled = haar_oracle_so3(c * c * m1, c, 100) - haar_oracle_so3(c * c * m2, c, 100)
        assert base == pytest.approx(scaled, abs=1e-12)

    def test_grid_floor(self):
        with pytest.raises(ValueError):
            haar_oracle_so3(np.zeros((3, 3)), 1.0, 30)


class TestBruteForceProcrustes:
    def test_identity(self):
        rng = np.random.default_rng(8)
        x = PointCloud(rng.standard_normal((4, 2)))
        assert brute_force_procrustes_2d(x, x, 10_000) == pytest.approx(0.0, abs=1e-9)

    def test_constructed_rotation(self):
        rng = np.random.default_rng(9)
        x = PointCloud(rng.standard_normal((5, 2)))
        xp = PointCloud(x.data @ rot2(1.234).T)
        res = brute_force_procrustes_2d(x, xp, 100_000)
        assert res < 1e-3 * x.norm()

    def test_upper_bounds_svd(self):
        rng = np.random.default_rng(10)
        for _ in range(5):
            x = PointCloud(rng.standard_normal((5, 2)))
            xp = PointCloud(x.data + 0.5 * rng.standard_normal((5, 2)))
            grid = brute_force_procrustes_2d(x, xp, 10_000)
            assert grid >= project_rotation(x, xp).residual - 1e-9

    def test_grid_floor(self):
        x = PointCloud(np.eye(2))
        with pytest.raises(ValueError):
            brute_force_procrustes_2d(x, x, 100)


class TestBruteForcePermutation:
    def test_permuted_rows(self):
        rng = np.random.default_rng(11)
        x = PointCloud(rng.standard_normal((6, 3)))
        xp = PointCloud(x.data[rng.permutation(6)])
        assert brute_force_permutation(x, xp) == pytest.approx(0.0, abs=1e-12)

    def test_single_point(self):
        x = PointCloud(np.array([[1.0, 2.0]]))
        xp = PointCloud(np.array([[4.0, 6.0]]))
        assert brute_force_permutation(x, xp) == pytest.approx(5.0)

    def test_matches_hungarian(self):
        rng = np.random.default_rng(12)
        for _ in range(5):
            x = PointCloud(rng.standard_normal((6, 2)))
            xp = PointCloud(rng.standard_normal((6, 2)))
            assert brute_force_permutation(x, xp) == pytest.approx(
                project_permutation(x, xp).residual, abs=1e-12
            )

    def test_refuses_large_n(self):
        x = PointCloud(np.zeros((9, 2)) + np.arange(9)[:, None])
        with pytest.raises(ValueError):
            brute_force_permutation(x, x)


class TestReferenceProbability:
    def test_constant_region(self):
        g = SyntheticClassifier("norm", math.inf)
        x = PointCloud(np.zeros((2, 2)))
        est = reference_probability(g, x, 1.0, 1_000_000, seed=13)
        assert est.probability == 1.0
        assert est.std_error == 0.0

    def test_chi_square_median(self):
        # X = 0 and N*D = 4: |Z|^2 / sigma^2 is chi-square(4), so the median
        # threshold splits the mass in half
        sigma = 0.8
        g = SyntheticClassifier("norm", sigma * math.sqrt(CHI2_4_MEDIAN))
        x = PointCloud(np.zeros((2, 2)))
        est = reference_probability(g, x, sigma, 1_000_000, seed=14)
        assert abs(est.probability - 0.5) <= 3.0 * est.std_error + 1e-4

    def test_rejects_small_n(self):
        g = SyntheticClassifier("norm", 1.0)
        with pytest.raises(ValueError):
            reference_probability(g, PointCloud(np.zeros((2, 2))), 1.0, 1000, seed=15)

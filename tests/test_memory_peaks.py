"""Peak memory of the two array-heavy steps, traced with tracemalloc: numpy
reports its array buffers to it, so the peaks are deterministic byte counts
and involve no timing."""

import tracemalloc

import numpy as np

from invarcert.geometry import PointCloud
from invarcert.mc import smooth_predict
from invarcert.oracles import _PROFILE_BYTES, make_classifier
from invarcert.orbit import _COST_BLOCK, project_permutation, project_registration_upper

MIB = 2**20


def traced_peak(call) -> int:
    """Peak bytes allocated while call() runs."""
    tracemalloc.start()
    try:
        call()
        return tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()


def _assignment_pair():
    n = 1024
    rng = np.random.default_rng(11)
    x, x_prime = (PointCloud(rng.standard_normal((n, 3))) for _ in range(2))
    project_permutation(PointCloud(x.data[:4]), PointCloud(x_prime.data[:4]))  # imports scipy
    # the cost and one scratch row block; the solver adds O(N)
    bound = n * n * 8 + _COST_BLOCK * 8 + MIB // 2
    return x, x_prime, bound


def test_permutation_cost_holds_one_plane_and_a_block():
    x, x_prime, bound = _assignment_pair()
    assert traced_peak(lambda: project_permutation(x, x_prime)) <= bound


def test_registration_holds_one_plane_and_a_block():
    # each iteration's assignment frees its cost before the next one builds
    x, x_prime, bound = _assignment_pair()
    assert traced_peak(lambda: project_registration_upper(x, x_prime, max_iters=6)) <= bound


def test_smooth_predict_holds_one_noise_batch():
    # one (n, 64, 2) batch, noised in place, plus the pairwise-centroid
    # classifier's temporaries: about 2.5 * _PROFILE_BYTES a chunk, one chunk
    # on each of its two threads
    n = 10**4
    x = PointCloud(np.random.default_rng(12).standard_normal((64, 2)))
    g = make_classifier("pairwise-centroid", 1.0, x)
    smooth_predict(g, x, 0.1, 100, 0.01, 1)  # warm: the worker pool's first start
    noise_batch = n * x.data.size * 8
    classifier_chunks = 2 * 3 * _PROFILE_BYTES
    slack = 1 * MIB
    peak = traced_peak(lambda: smooth_predict(g, x, 0.1, n, 0.01, 1))
    assert peak <= noise_batch + classifier_chunks + slack

"""Synthetic invariant classifiers.

They label every noisy copy of a smoothed prediction, so they are vectorized
over the batch.  Each is built from an invariant feature, so its declared
invariance holds exactly.
"""

from __future__ import annotations

from concurrent.futures import ThreadPoolExecutor
from dataclasses import dataclass

import numpy as np

from .geometry import GroupKind, PointCloud

# Pairwise-centroid batches are profiled in row chunks whose pairwise
# coordinate differences (8 * D * N(N-1)/2 bytes a cloud) take this much.
# One coordinate plane of a chunk is then _PROFILE_BYTES / D, so the few
# pair-sized arrays alive at once (two gathers, their difference, the running
# sum of squares) stay within a 2 MiB L2 cache.  Of 2**18, 2**19 and 2**20,
# 2**20 labelled 10**4 clouds fastest at N = 64, D = 2 and 3 (2-core Xeon).
_PROFILE_BYTES = 2**20

# Each classifier kind, by its command-line name, and the group its feature
# is invariant under.
CLASSIFIER_GROUPS = {
    "norm": GroupKind.ROTATION,
    "centered-norm": GroupKind.ROTO_TRANSLATION,
    "pairwise-centroid": GroupKind.PERMUTATION_ROTO_TRANSLATION,
}


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
    tau: float
    signature: np.ndarray | None = None

    def __post_init__(self):
        if self.kind not in CLASSIFIER_GROUPS:
            raise ValueError(f"SyntheticClassifier: unknown kind {self.kind!r}")
        if self.kind == "pairwise-centroid":
            signature = np.asarray(self.signature, dtype=float)  # None reads as a 0-d NaN
            if signature.ndim != 1 or not np.all(np.isfinite(signature)):
                raise ValueError(
                    "SyntheticClassifier: pairwise-centroid needs a finite 1-D signature"
                )
        elif self.signature is not None:
            raise ValueError(f"SyntheticClassifier: kind {self.kind!r} takes no signature")

    @property
    def invariance(self) -> GroupKind:
        """The group this kind's feature is invariant under."""
        return CLASSIFIER_GROUPS[self.kind]

    def predict_batch(self, batch: np.ndarray) -> np.ndarray:
        """0/1 label of each cloud of batch, shape (clouds, N, D) or (N, D).

        A pairwise-centroid batch is profiled in row chunks.  When it spans
        more than one chunk, a worker thread labels the second half of the
        chunks while the calling thread labels the first.  There is no setting
        for this: every chunk holds the rows it would hold on one thread, so
        the labels are bit-identical to labelling the chunks in turn.
        If both halves fail, the calling thread's error propagates, and the
        worker is joined before this returns or raises.
        """
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
        # pairwise-centroid
        n, d = batch.shape[1:]
        pairs = np.triu_indices(n, k=1)
        if len(self.signature) != len(pairs[0]) + n:
            raise ValueError(
                f"SyntheticClassifier: pairwise-centroid signature has length "
                f"{len(self.signature)}, clouds of {n} points need {len(pairs[0]) + n}"
            )
        rows = max(1, _PROFILE_BYTES // max(1, 8 * d * len(pairs[0])))
        dist = np.empty(len(batch))

        def label(begin: int, end: int) -> None:
            for start in range(begin, end, rows):
                profile = _distance_profile(batch[start : start + rows], pairs)
                dist[start : start + rows] = np.linalg.norm(profile - self.signature, axis=1)

        cut = min(len(batch), -(-len(batch) // (2 * rows)) * rows)  # after half the chunks
        if cut == len(batch):
            label(0, cut)
        else:
            with ThreadPoolExecutor(max_workers=1) as worker:
                second = worker.submit(label, cut, len(batch))
                label(0, cut)
                second.result()
        return (dist <= self.tau).astype(int)

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


def make_classifier(kind: str, tau: float, reference: PointCloud) -> SyntheticClassifier:
    """The classifier of the command line's --classifier kind at threshold
    tau; pairwise-centroid takes its signature from reference."""
    signature = None
    if kind == "pairwise-centroid":
        pairs = np.triu_indices(reference.n_points, k=1)
        signature = _distance_profile(reference.data[None], pairs)[0]
    return SyntheticClassifier(kind, tau, signature)

"""Point clouds, centering, 2D rotations and the 2D orientation parameters
of the perturbation.

Rows are points; group actions act on the right (X R^T), translations add a
row-broadcast vector.
"""

from __future__ import annotations

import enum
import math
from dataclasses import dataclass

import numpy as np


class GroupKind(enum.Enum):
    TRANSLATION = "T"
    ROTATION = "SO"
    ORTHOGONAL = "O"
    ROTO_TRANSLATION = "SE"
    PERMUTATION = "S"
    PERMUTATION_ROTO_TRANSLATION = "SxSE"


@dataclass(frozen=True)
class PointCloud:
    """N x D matrix of point coordinates, one row per point."""

    data: np.ndarray

    def __post_init__(self):
        data = np.asarray(self.data, dtype=float)
        object.__setattr__(self, "data", data)
        if data.ndim != 2 or data.shape[0] < 1:
            raise ValueError("PointCloud: data must be a nonempty N x D matrix")
        if data.shape[1] not in (2, 3):
            raise ValueError("PointCloud: dim must be 2 or 3")
        if not np.all(np.isfinite(data)):
            raise ValueError("PointCloud: entries must be finite")

    @property
    def n_points(self) -> int:
        return self.data.shape[0]

    @property
    def dim(self) -> int:
        return self.data.shape[1]

    def norm(self) -> float:
        """Frobenius norm of the coordinate matrix."""
        return float(np.linalg.norm(self.data))


def check_same_shape(x: PointCloud, x_prime: PointCloud) -> None:
    if x.data.shape != x_prime.data.shape:
        raise ValueError("point clouds have different shapes")


def center_matrix(data: np.ndarray) -> np.ndarray:
    return data - data.mean(axis=0, keepdims=True)


def center(x: PointCloud) -> PointCloud:
    """Subtract the column-wise averages; output columns sum to zero."""
    return PointCloud(center_matrix(x.data))


def rot2(theta: float) -> np.ndarray:
    """Counter-clockwise 2D rotation matrix."""
    c, s = math.cos(theta), math.sin(theta)
    return np.array([[c, -s], [s, c]])


@dataclass(frozen=True)
class EpsilonParams:
    """Orientation coordinates of a 2D perturbation relative to the clean input.

    eps1 = <X, Delta>_F and eps2 = <X R(-pi/2)^T, Delta>_F; they satisfy
    sqrt(eps1^2 + eps2^2) <= |X| * |Delta|.
    """

    eps1: float
    eps2: float
    norm_x: float
    norm_delta: float

    def __post_init__(self):
        bound = self.norm_x * self.norm_delta
        if math.hypot(self.eps1, self.eps2) > bound + 1e-9 * max(1.0, bound):
            raise ValueError("EpsilonParams: orientation parameters exceed |X||Delta|")

    @property
    def eps1_normalized(self) -> float:
        denom = self.norm_x * self.norm_delta
        return self.eps1 / denom if denom > 0 else 0.0

    @property
    def eps2_normalized(self) -> float:
        denom = self.norm_x * self.norm_delta
        return self.eps2 / denom if denom > 0 else 0.0


def rotate_quarter_turn_back(data: np.ndarray) -> np.ndarray:
    """X R(-pi/2)^T: each row (x, y) becomes (y, -x)."""
    return np.column_stack([data[:, 1], -data[:, 0]])


def epsilon_params(x: PointCloud, delta) -> EpsilonParams:
    """Orientation parameters of a perturbation of a 2D point cloud."""
    if x.dim != 2:
        raise ValueError("epsilon_params: defined for D = 2 only")
    d = np.asarray(delta, dtype=float)
    if d.shape != x.data.shape:
        raise ValueError("epsilon_params: shape mismatch")
    eps1 = float(np.sum(x.data * d))
    eps2 = float(np.sum(rotate_quarter_turn_back(x.data) * d))
    return EpsilonParams(eps1=eps1, eps2=eps2, norm_x=x.norm(), norm_delta=float(np.linalg.norm(d)))


def adversarial_rotation_locus(norm_x: float, norm_delta: float) -> list[EpsilonParams]:
    """(eps1, eps2) pairs reachable by pure rotations X' = X R^T of given norms.

    Empty when |Delta| > 2|X| (no rotation moves X that far); a single point
    at the half-turn boundary; otherwise the symmetric pair (eps1, +-eps2).
    """
    if norm_x < 0 or norm_delta < 0:
        raise ValueError("adversarial_rotation_locus: norms must be >= 0")
    if norm_delta > 2.0 * norm_x:
        return []
    eps1 = -0.5 * norm_delta**2
    disc = norm_delta**2 * (4.0 * norm_x**2 - norm_delta**2)
    eps2 = 0.5 * math.sqrt(max(disc, 0.0))
    if eps2 == 0.0:
        return [EpsilonParams(eps1, 0.0, norm_x, norm_delta)]
    return [
        EpsilonParams(eps1, eps2, norm_x, norm_delta),
        EpsilonParams(eps1, -eps2, norm_x, norm_delta),
    ]


def load_points_csv(path, data: bytes | None = None) -> PointCloud:
    """Read the shared CSV point format: one row per point, no header, UTF-8
    with or without a byte-order mark.  ``data``, when given, is the file's
    content already read, and ``path`` only names it in error messages.

    Lines end at ``\n``, ``\r\n`` or ``\r`` (universal newlines, not
    ``str.splitlines``), blank lines are skipped but counted, and a field is
    anything ``float()`` reads; numpy's string cast follows it."""
    if data is None:
        with open(path, "rb") as fh:
            data = fh.read()
    text = data.decode("utf-8-sig")
    if "\r" in text:
        text = text.replace("\r\n", "\n").replace("\r", "\n")
    lines = text.split("\n")
    rows = list(filter(None, map(str.strip, lines)))
    if not rows:
        raise ValueError(f"{path}: no points")
    width = rows[0].count(",")
    if {row.count(",") for row in rows} != {width}:
        _raise_at_first_bad_line(path, lines, width)
    try:
        values = np.array(",".join(rows).split(","), dtype=float)
    except ValueError:
        _raise_at_first_bad_line(path, lines, width)
        raise
    return PointCloud(values.reshape(len(rows), width + 1))


def _raise_at_first_bad_line(path, lines: list[str], width: int) -> None:
    """Name the first ragged or non-numeric line, counting blank lines."""
    for lineno, line in enumerate(lines, start=1):
        line = line.strip()
        if not line:
            continue
        fields = line.split(",")
        if len(fields) != width + 1:
            raise ValueError(f"{path}: ragged row at line {lineno}")
        try:
            np.array(fields, dtype=float)
        except ValueError as exc:
            raise ValueError(f"{path}: non-numeric field at line {lineno}") from exc


def save_points_csv(path, x: PointCloud) -> None:
    with open(path, "w", encoding="utf-8") as fh:
        for row in x.data:
            fh.write(",".join(repr(float(v)) for v in row) + "\n")

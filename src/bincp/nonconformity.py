"""Conformity scoring: nearest-neighbour measures and ingested class probabilities.

Every score produced here follows one convention: higher numbers mean a
sample conforms better to the hypothesized label.  Distance-ratio values
grow with strangeness, so they are negated at the boundary of this module.
"""

from __future__ import annotations

import dataclasses
import functools
import math
import operator
from dataclasses import dataclass
from typing import Iterable, Sequence

import numpy as np

from .core import Dataset, FeatureVector, Label, ScorePair

MEASURE_KINDS = ("knn_ratio", "knn_prob", "passthrough")


@dataclass(frozen=True)
class MeasureSpec:
    """Which score source to use when scoring a dataset."""

    kind: str
    k: int = 1

    def __post_init__(self) -> None:
        if self.kind not in MEASURE_KINDS:
            raise ValueError(
                f"unknown measure {self.kind!r}, expected one of {MEASURE_KINDS}"
            )
        if self.k < 1:
            raise ValueError(f"k must be >= 1, got {self.k}")

    @property
    def needs_bag(self) -> bool:
        return self.kind != "passthrough"


@dataclass(frozen=True)
class NonconformityValue:
    """How strange a sample looks under a label: 0 conforms best, +inf worst."""

    alpha: float

    def __post_init__(self) -> None:
        if math.isnan(self.alpha) or self.alpha < 0.0:
            raise ValueError(f"alpha must be >= 0 and not NaN, got {self.alpha}")


@dataclass(frozen=True)
class TrainingBag:
    """Labelled reference points that nearest-neighbour measures score against.

    Arrays are stored read-only.
    """

    points: np.ndarray
    is_positive: np.ndarray

    def __post_init__(self) -> None:
        points = np.array(self.points, dtype=float)
        if points.ndim != 2 or points.shape[0] == 0:
            raise ValueError("bag needs a nonempty (n, m) point array")
        if not np.isfinite(points).all():
            raise ValueError("bag points must be finite")
        labels = np.array(self.is_positive, dtype=bool)
        if labels.shape != (points.shape[0],):
            raise ValueError("one label per bag point required")
        points.flags.writeable = False
        labels.flags.writeable = False
        object.__setattr__(self, "points", points)
        object.__setattr__(self, "is_positive", labels)

    @classmethod
    def from_pairs(
        cls, pairs: Iterable[tuple[Sequence[float], Label]]
    ) -> "TrainingBag":
        pairs = list(pairs)
        if not pairs:
            raise ValueError("bag must not be empty")
        points = np.array([list(features) for features, _ in pairs], dtype=float)
        labels = np.array([label is Label.POSITIVE for _, label in pairs], dtype=bool)
        return cls(points, labels)

    @classmethod
    def from_dataset(cls, data: Dataset) -> "TrainingBag":
        missing = [s.id for s in data if s.features is None or s.true_label is None]
        if missing:
            raise ValueError(
                f"bag samples need features and labels, missing for {missing[:5]}"
            )
        return cls.from_pairs((s.features, s.true_label) for s in data)

    def __len__(self) -> int:
        return int(self.points.shape[0])

    @property
    def dim(self) -> int:
        return int(self.points.shape[1])


def _distances(points: np.ndarray, x: np.ndarray) -> np.ndarray:
    return np.sqrt(((points - x) ** 2).sum(axis=1))


def _mean_smallest(dists: np.ndarray, k: int) -> float:
    """Mean of the up-to-k smallest values, summed smallest first; +inf if none."""
    if dists.size == 0:
        return math.inf
    smallest = np.sort(dists)[:k].tolist()
    return functools.reduce(operator.add, smallest) / len(smallest)


def _ratio(d_same: float, d_diff: float) -> float:
    # Degenerate cases are fixed as monotone limits of d_same / d_diff.
    if d_same == 0.0 and d_diff == 0.0:
        return 1.0
    if math.isinf(d_same) and math.isinf(d_diff):
        return 1.0
    if d_diff == 0.0 or math.isinf(d_same):
        return math.inf
    if d_same == 0.0 or math.isinf(d_diff):
        return 0.0
    return d_same / d_diff


def _ratio_array(d_same: np.ndarray, d_diff: np.ndarray) -> np.ndarray:
    with np.errstate(divide="ignore", invalid="ignore"):
        quotient = d_same / d_diff
    return np.select(
        [
            ((d_same == 0.0) & (d_diff == 0.0))
            | (np.isinf(d_same) & np.isinf(d_diff)),
            (d_diff == 0.0) | np.isinf(d_same),
            (d_same == 0.0) | np.isinf(d_diff),
        ],
        [1.0, np.inf, 0.0],
        default=quotient,
    )


def knn_distance_ratio(
    bag: TrainingBag, point: Sequence[float], hypothesized: Label, k: int = 1
) -> NonconformityValue:
    """Distance to nearest same-label points over distance to nearest other-label points.

    With k > 1 each side is the mean of the k smallest distances (fewer when a
    pool is smaller than k).  An empty same-label pool yields +inf, an empty
    other-label pool yields 0.
    """
    if k < 1:
        raise ValueError(f"k must be >= 1, got {k}")
    x = np.asarray(list(point), dtype=float)
    if x.shape != (bag.dim,):
        raise ValueError(f"expected {bag.dim} features, got {x.shape}")
    same_mask = bag.is_positive == (hypothesized is Label.POSITIVE)
    d = _distances(bag.points, x)
    d_same = _mean_smallest(d[same_mask], k)
    d_diff = _mean_smallest(d[~same_mask], k)
    return NonconformityValue(_ratio(d_same, d_diff))


def knn_probability_scores(bag: TrainingBag, point: Sequence[float], k: int) -> ScorePair:
    """Fraction of positive labels among the k nearest bag points.

    Distance ties are broken by bag index, ascending, so results do not
    depend on any internal sort quirks.
    """
    if not 1 <= k <= len(bag):
        raise ValueError(f"k must be in [1, {len(bag)}], got {k}")
    x = np.asarray(list(point), dtype=float)
    if x.shape != (bag.dim,):
        raise ValueError(f"expected {bag.dim} features, got {x.shape}")
    d = _distances(bag.points, x)
    nearest = np.argsort(d, kind="stable")[:k]
    frac_pos = float(bag.is_positive[nearest].mean())
    return ScorePair(frac_pos, 1.0 - frac_pos, probability=True)


def _row_means(sorted_block: np.ndarray) -> np.ndarray:
    """Row means, each summed left to right; +inf for rows of an empty pool.

    The cumulative sum fixes the order of additions, so a row's mean does
    not depend on the block's shape or memory layout.
    """
    if sorted_block.shape[1] == 0:
        return np.full(sorted_block.shape[0], np.inf)
    return np.cumsum(sorted_block, axis=1)[:, -1] / sorted_block.shape[1]


# Scratch memory one query block of `_k_nearest` may use, in bytes.
_BLOCK_BYTES = 1 << 23
# Candidates the shortlist keeps beyond the k nearest.
_SHORTLIST_MARGIN = 8


def _k_nearest(
    queries: np.ndarray, points: np.ndarray, k: int
) -> tuple[np.ndarray, np.ndarray]:
    """Indices and distances of the min(k, n) nearest of n points, per query.

    Each row is ordered by (distance, point index), and the distances are
    those of `_distances`, bit for bit.  The GEMM form |q|^2 + |p|^2 - 2 q.p
    on mean-centred data shortlists k + margin candidates per query, whose
    distances are then computed directly.  A query whose shortlist cannot
    be proven to hold its k nearest is ranked against all n points, so the
    result does not depend on BLAS or its thread count.  Queries go through
    in blocks that keep scratch memory near `_BLOCK_BYTES`.
    """
    n, dim = points.shape
    k = min(k, n)
    if k == 0:
        return np.empty((len(queries), 0), dtype=np.intp), np.empty((len(queries), 0))
    width = min(n, k + _SHORTLIST_MARGIN)
    center = points.mean(axis=0)
    shifted = points - center
    sq_points = (shifted**2).sum(axis=1)
    eps = np.finfo(float).eps
    # |GEMM value - true squared distance| <= gemm_error * (|q|^2 + max |p|^2),
    # counting the dot product, both norms, two sums and the centring.
    gemm_error = 4 * (dim + 4) * eps
    # Relative error of a direct-form squared distance and its square root.
    direct_error = 2 * (dim + 8) * eps
    rows = max(1, _BLOCK_BYTES // (8 * (2 * n + width * dim)))
    index = np.empty((len(queries), k), dtype=np.intp)
    dist = np.empty((len(queries), k))
    for start in range(0, len(queries), rows):
        block = queries[start : start + rows]
        stop = start + len(block)
        if width == n:
            cand = np.broadcast_to(np.arange(n), (len(block), n))
            proven = np.ones(len(block), dtype=bool)
        else:
            q = block - center
            sq_q = (q**2).sum(axis=1)
            gram = q @ shifted.T
            gram *= -2.0
            gram += sq_q[:, None]
            gram += sq_points
            cand = np.argpartition(gram, width - 1, axis=1)[:, :width]
            cand.sort(axis=1)
            shortlist = np.take_along_axis(gram, cand, axis=1)
            kth = np.partition(shortlist, k - 1, axis=1)[:, k - 1]
            last = shortlist.max(axis=1)
            # Points left out have GEMM values >= last, so true squared
            # distances >= last - slack; k shortlisted points lie within
            # kth + slack.  A gap that also clears the direct form's rounding
            # puts every left-out point strictly beyond the k-th nearest.
            slack = gemm_error * (sq_q + sq_points.max())
            proven = last - kth > 2 * slack + direct_error * (
                np.abs(last) + np.abs(kth) + 2 * slack
            )
        d = np.sqrt(((points[cand] - block[:, None, :]) ** 2).sum(axis=2))
        order = np.argsort(d, axis=1, kind="stable")[:, :k]
        index[start:stop] = np.take_along_axis(cand, order, axis=1)
        dist[start:stop] = np.take_along_axis(d, order, axis=1)
        for row in np.flatnonzero(~proven):
            full = _distances(points, block[row])
            nearest = np.argsort(full, kind="stable")[:k]
            index[start + row] = nearest
            dist[start + row] = full[nearest]
    return index, dist


def _query_matrix(data: Dataset, measure: MeasureSpec) -> np.ndarray:
    missing = [s.id for s in data if s.features is None]
    if missing:
        raise ValueError(
            f"measure {measure.kind!r} needs features, missing for {missing[:5]}"
        )
    return np.array([list(s.features) for s in data], dtype=float)


def score_dataset(
    measure: MeasureSpec, bag: TrainingBag | None, data: Dataset
) -> Dataset:
    """Return a copy of `data` whose samples carry scores from the chosen measure.

    The input dataset is never modified.  Passthrough requires precomputed
    scores; the nearest-neighbour measures require features plus a bag.
    Distance ties among bag points go to the lower bag index.  Scores do
    not depend on the BLAS library or its thread count, and queries are
    scored in blocks, so scratch memory stays near `_BLOCK_BYTES` per
    block whatever the size of `data`.
    """
    if measure.kind == "passthrough":
        missing = [s.id for s in data if s.scores is None]
        if missing:
            raise ValueError(f"passthrough needs precomputed scores, missing for {missing[:5]}")
        return Dataset(data.samples, data.feature_dim)

    if bag is None:
        raise ValueError(f"measure {measure.kind!r} needs a training bag")
    if len(data) == 0:
        return Dataset((), data.feature_dim)
    queries = _query_matrix(data, measure)
    if queries.shape[1] != bag.dim:
        raise ValueError(
            f"data has {queries.shape[1]} features but bag has {bag.dim}"
        )

    if measure.kind == "knn_prob":
        if measure.k > len(bag):
            raise ValueError(f"k must be in [1, {len(bag)}], got {measure.k}")
        nearest, _ = _k_nearest(queries, bag.points, measure.k)
        frac_pos = bag.is_positive[nearest].mean(axis=1)
        pairs = [
            ScorePair(float(f), 1.0 - float(f), probability=True) for f in frac_pos
        ]
    else:
        mean_pos, mean_neg = (
            _row_means(_k_nearest(queries, bag.points[pool], measure.k)[1])
            for pool in (bag.is_positive, ~bag.is_positive)
        )
        alpha_pos = _ratio_array(mean_pos, mean_neg)
        alpha_neg = _ratio_array(mean_neg, mean_pos)
        pairs = [
            ScorePair(float(-ap), float(-an))
            for ap, an in zip(alpha_pos, alpha_neg)
        ]

    samples = tuple(
        dataclasses.replace(sample, scores=pair)
        for sample, pair in zip(data.samples, pairs)
    )
    return Dataset(samples, data.feature_dim)

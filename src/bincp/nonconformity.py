"""Conformity scoring: nearest-neighbour measures and ingested class probabilities.

Every score produced here follows one convention: higher numbers mean a
sample conforms better to the hypothesized label.  Distance-ratio values
grow with strangeness, so they are negated at the boundary of this module.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Iterable, Sequence

import numpy as np

from .core import Dataset, Label, _check_label, _feature_limit

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
class TrainingBag:
    """Labelled reference points that nearest-neighbour measures score against.

    Arrays are stored read-only.  Coordinates must be finite and within
    `core._feature_limit`, so no squared distance overflows.
    """

    points: np.ndarray
    is_positive: np.ndarray

    def __post_init__(self) -> None:
        points = np.array(self.points, dtype=float)
        if points.ndim != 2 or points.shape[0] == 0:
            raise ValueError("bag needs a nonempty (n, m) point array")
        if not np.isfinite(points).all():
            raise ValueError("bag points must be finite")
        limit = _feature_limit(points.shape[1])
        if (np.abs(points) > limit).any():
            raise ValueError(
                f"bag points must be within ±{limit:.4g}, or squared distances overflow"
            )
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
        """A bag of (features, label) pairs; each label must be a `Label` member."""
        pairs = list(pairs)
        if not pairs:
            raise ValueError("bag must not be empty")
        points = [list(features) for features, _ in pairs]
        return cls(points, [_check_label(label) is Label.POSITIVE for _, label in pairs])

    @classmethod
    def from_dataset(cls, data: Dataset) -> "TrainingBag":
        missing = data.missing("features", "labels")
        if missing:
            raise ValueError(
                f"bag samples need features and labels, missing for {missing}"
            )
        return cls(data.features, data.positive)

    def __len__(self) -> int:
        return int(self.points.shape[0])

    @property
    def dim(self) -> int:
        return int(self.points.shape[1])


def _row_sums(sq: np.ndarray) -> np.ndarray:
    """Sums over axis 0 in `_distances`' order, accumulated in place in `sq`."""
    d = len(sq)
    if not d:
        return np.zeros(sq.shape[1:])
    if d > 128:
        half = d // 2 - d // 2 % 8
        return _row_sums(sq[:half]) + _row_sums(sq[half:])
    if d < 8:
        total, rest = sq[0], sq[1:]
    else:
        whole = d - d % 8
        acc, rest = sq[:8], sq[whole:]
        for start in range(8, whole, 8):
            acc += sq[start : start + 8]
        total = acc[0] + acc[1] + (acc[2] + acc[3]) + (acc[4] + acc[5] + (acc[6] + acc[7]))
    for row in rest:
        total += row
    return total


def _distances(coords: np.ndarray, x: np.ndarray) -> np.ndarray:
    """Euclidean distances between `coords` (d, ...) and `x`, over axis 0.

    A point is a column, so each step is an elementwise pass over rows.
    The squares are added in the order of numpy's pairwise row sum, so the
    distances are bit for bit those of `((points - x) ** 2).sum(axis=-1)`
    on row-major points: under 8 terms in turn; up to 128 in eight
    accumulators stepping by 8, combined as ((r0+r1)+(r2+r3))+((r4+r5)+
    (r6+r7)), then the remainder in turn; more split at the largest
    multiple of 8 not above half, each part summed so.
    """
    diff = coords - x
    np.multiply(diff, diff, out=diff)
    total = _row_sums(diff)
    return np.sqrt(total, out=total)


def _ratio_array(d_same: np.ndarray, d_diff: np.ndarray) -> np.ndarray:
    """d_same / d_diff, with 0/0 and inf/inf read as 1; IEEE division gives
    the other limits (x/0 and inf/x are inf, 0/x and x/inf are 0)."""
    with np.errstate(divide="ignore", invalid="ignore", over="ignore"):
        quotient = d_same / d_diff
    return np.where(np.isnan(quotient), 1.0, quotient)


def _pool_means(block: np.ndarray) -> np.ndarray:
    """Mean of each column's finite entries, summed top down; +inf if none.

    Columns are sorted neighbour distances, so the sum runs smallest first
    and the +inf padding of a pool smaller than k comes last; a block of no
    rows (an empty pool) gives +inf throughout.  The cumulative sum adds row
    after row whatever the block's layout, so batch scoring and the on-line
    engine get the same bits.
    """
    if not block.shape[-2]:
        return np.full(block.shape[:-2] + block.shape[-1:], np.inf)
    finite = np.isfinite(block)
    sums = np.cumsum(np.where(finite, block, 0.0), axis=-2)[..., -1, :]
    counts = finite.sum(axis=-2)
    return np.divide(sums, counts, out=np.full(sums.shape, np.inf), where=counts > 0)


# Scratch memory one query block of `_k_nearest` may use, in bytes.
_BLOCK_BYTES = 1 << 23
# Candidates the shortlist keeps beyond the k nearest.
_SHORTLIST_MARGIN = 8
# Columns per group in the first stage of the shortlist.
_GROUP = 8


def _k_nearest(
    queries: np.ndarray, points: np.ndarray, k: int
) -> tuple[np.ndarray, np.ndarray]:
    """Indices and distances of the min(k, n) nearest of n points, per query.

    Each row is ordered by (distance, point index), and the distances are
    those of `_distances`, bit for bit.  The GEMM form |q|^2 + |p|^2 - 2 q.p
    on mean-centred data shortlists k + margin candidates per query, whose
    distances are then computed directly.  The shortlist is taken in two
    stages: a query's n values are viewed as `_GROUP` rows of `groups`
    columns, so group g holds points g, g + groups, g + 2 groups, ...; the
    k + margin groups with the smallest minima are kept, and their values
    are cut to the shortlist.  A query whose shortlist cannot be proven to
    hold its k nearest is ranked against all n points, so the result does
    not depend on BLAS, its thread count or how the shortlist was taken.
    Queries go through in blocks that keep scratch memory near
    `_BLOCK_BYTES`.
    """
    n, dim = points.shape
    k = min(k, n)
    if k == 0:
        return np.empty((len(queries), 0), dtype=np.intp), np.empty((len(queries), 0))
    width = min(n, k + _SHORTLIST_MARGIN)
    groups = -(-n // _GROUP)
    kept = min(width, groups)
    center = points.mean(axis=0)
    # Points as columns, as `_distances` reads them.
    coords = np.ascontiguousarray(points.T)
    shifted = coords - center[:, None]
    sq_points = _row_sums(shifted * shifted)
    # -2 p, padded with zero rows to whole groups whose |p|^2 is +inf, so a
    # block is finished by one addition and padding is never shortlisted
    # ahead of a finite value.  Scaling by a power of two is exact.
    scaled = np.zeros((groups * _GROUP, dim))
    np.multiply(shifted.T, -2.0, out=scaled[:n])
    padded = np.full(groups * _GROUP, np.inf)
    padded[:n] = sq_points
    # Column j of group g, for the gather of the kept groups.
    strides = (groups * np.arange(_GROUP))[:, None]
    eps = np.finfo(float).eps
    # |GEMM value - true squared distance| <= gemm_error * (|q|^2 + max |p|^2),
    # counting the dot product, both norms, the two sums that add |p|^2
    # and |q|^2, and the centring.
    gemm_error = 4 * (dim + 4) * eps
    # Relative error of a direct-form squared distance and its square root.
    direct_error = 2 * (dim + 8) * eps
    # Per row: the Gram block, the group minima and their partition, the
    # kept columns with their values and partition, the direct form.
    rows = max(
        1,
        _BLOCK_BYTES
        // (8 * (groups * _GROUP + 2 * groups + 3 * _GROUP * kept + width * dim)),
    )
    # One Gram buffer serves every block: a new matrix per block would be
    # allocated while the last one is still held, and fault in its pages.
    buffer = np.empty((min(rows, len(queries)), groups * _GROUP))
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
            sq_q = _row_sums(np.square(q).T)
            gram = np.matmul(q, scaled.T, out=buffer[: len(block)])
            gram += padded
            minima = gram.reshape(len(block), _GROUP, groups).min(axis=1)
            best = np.argpartition(minima, kept - 1, axis=1)[:, :kept]
            cols = (best[:, None, :] + strides).reshape(len(block), -1)
            values = np.take_along_axis(gram, cols, axis=1)
            pick = np.argpartition(values, width - 1, axis=1)[:, :width]
            cand = np.take_along_axis(cols, pick, axis=1)
            cand.sort(axis=1)
            # A row whose values overflow has an infinite last or slack and
            # takes the fallback; its padding must not index past the bag.
            np.minimum(cand, n - 1, out=cand)
            # |q|^2 is added to the shortlist alone: a constant per row does
            # not change the order within the row.
            shortlist = np.take_along_axis(values, pick, axis=1)
            shortlist += sq_q[:, None]
            kth = np.partition(shortlist, k - 1, axis=1)[:, k - 1]
            last = shortlist.max(axis=1)
            # With fewer than `width` groups every group is kept.  Otherwise
            # a column outside the kept groups is >= its group's minimum,
            # which is >= the largest kept minimum; the `width` kept groups
            # hold `width` values no larger than that, so it is >= last.
            # Points left out therefore have GEMM values >= last, so true
            # squared distances >= last - slack; k shortlisted points lie
            # within kth + slack.  A gap that also clears the direct form's
            # rounding puts every left-out point strictly beyond the k-th
            # nearest.
            slack = gemm_error * (sq_q + sq_points.max())
            proven = last - kth > 2 * slack + direct_error * (
                np.abs(last) + np.abs(kth) + 2 * slack
            )
        d = _distances(coords[:, cand], block.T[:, :, None])
        order = np.argsort(d, axis=1, kind="stable")[:, :k]
        index[start:stop] = np.take_along_axis(cand, order, axis=1)
        dist[start:stop] = np.take_along_axis(d, order, axis=1)
        for row in np.flatnonzero(~proven):
            full = _distances(coords, block[row, :, None])
            nearest = np.argsort(full, kind="stable")[:k]
            index[start + row] = nearest
            dist[start + row] = full[nearest]
    return index, dist


def score_dataset(
    measure: MeasureSpec, bag: TrainingBag | None, data: Dataset
) -> Dataset:
    """Return `data` with the score column of the chosen measure.

    Passthrough requires precomputed scores and returns `data` itself; the
    nearest-neighbour measures require features plus a bag.  Distance ties
    among bag points go to the lower bag index.  Scores do not depend on
    the BLAS library or its thread count, and queries are scored in blocks,
    so scratch memory stays near `_BLOCK_BYTES` per block whatever the size
    of `data`.
    """
    if measure.kind == "passthrough":
        missing = data.missing("scores")
        if missing:
            raise ValueError(f"passthrough needs precomputed scores, missing for {missing}")
        return data

    if bag is None:
        raise ValueError(f"measure {measure.kind!r} needs a training bag")
    if len(data) == 0:
        return data.with_scores(np.empty((0, 2)), measure.kind == "knn_prob")
    missing = data.missing("features")
    if missing:
        raise ValueError(f"measure {measure.kind!r} needs features, missing for {missing}")
    queries = data.features
    if queries.shape[1] != bag.dim:
        raise ValueError(
            f"data has {queries.shape[1]} features but bag has {bag.dim}"
        )

    if measure.kind == "knn_prob":
        if measure.k > len(bag):
            raise ValueError(f"k must be in [1, {len(bag)}], got {measure.k}")
        nearest, _ = _k_nearest(queries, bag.points, measure.k)
        frac_pos = bag.is_positive[nearest].mean(axis=1)
        return data.with_scores(np.column_stack([frac_pos, 1.0 - frac_pos]), True)
    mean_pos, mean_neg = (
        _pool_means(_k_nearest(queries, bag.points[pool], measure.k)[1].T)
        for pool in (bag.is_positive, ~bag.is_positive)
    )
    alphas = np.column_stack(
        [_ratio_array(mean_pos, mean_neg), _ratio_array(mean_neg, mean_pos)]
    )
    return data.with_scores(-alphas, False)

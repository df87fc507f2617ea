"""Conformity scoring: nearest-neighbour measures and ingested class probabilities.

Scores follow `core`'s convention, higher meaning more conforming, so the
distance-ratio values, which grow with strangeness, are negated here.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import Iterable, Sequence

import numpy as np

from .core import Dataset, Label, _check_label, _check_points, _frozen

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

    Arrays are stored read-only; points meet the feature bound, `core._point_checks`.
    """

    points: np.ndarray
    is_positive: np.ndarray

    def __post_init__(self) -> None:
        points = _frozen(self.points, float)
        if points.ndim != 2 or points.shape[0] == 0:
            raise ValueError("bag needs a nonempty (n, m) point array")
        _check_points(points, "bag point {}".format)
        labels = _frozen(self.is_positive, bool)
        if labels.shape != (points.shape[0],):
            raise ValueError("one label per bag point required")
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
        data.require("features", "labels", why="bag samples need features and labels")
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
    the other limits (x/0 and inf/x are inf, 0/x and x/inf are 0).

    Both hold means of distances, never negative.  When every numerator
    is finite, every denominator positive and the largest numerator below
    2**1023 times the smallest denominator, no quotient is NaN or
    overflows and no division by zero occurs, so the division runs with no
    floating-point state of its own.  The bound is a Python float, which
    overflows to inf without a warning.
    """
    low = float(d_diff.min(initial=np.inf))
    if 0.0 < low and d_same.max(initial=0.0) < low * 2.0**1023:
        return d_same / d_diff
    with np.errstate(divide="ignore", invalid="ignore", over="ignore"):
        quotient = d_same / d_diff
    return np.where(np.isnan(quotient), 1.0, quotient)


def _pool_means(block: np.ndarray) -> np.ndarray:
    """Mean of each column's finite entries, summed top down; +inf if none.

    Columns are sorted neighbour distances, so the sum runs smallest first
    and the +inf padding of a pool smaller than k comes last; a block of no
    rows (an empty pool) gives +inf throughout.  The sum is the last row of
    a cumulative sum, which adds the rows one after another whatever the
    block's layout, so batch scoring and the on-line engine get the same
    bits; `ndarray.sum` would pair the rows of a transposed block of 8 or
    more.  Entries are never negative or NaN, so one reduction tells a
    block with no padding, which is summed as it is and divided by its row
    count.
    """
    rows = block.shape[-2]
    if not rows:
        return np.full(block.shape[:-2] + block.shape[-1:], np.inf)
    if block.max(initial=0.0) < np.inf:
        return np.cumsum(block, axis=-2)[..., -1, :] / rows
    finite = np.isfinite(block)
    sums = np.cumsum(np.where(finite, block, 0.0), axis=-2)[..., -1, :]
    counts = finite.sum(axis=-2)
    return np.divide(sums, counts, out=np.full(sums.shape, np.inf), where=counts > 0)


# Scratch memory one query block of `_k_nearest` may use, in bytes.
_BLOCK_BYTES = 1 << 23
# Candidates the shortlist keeps beyond the k nearest.
_SHORTLIST_MARGIN = 8
# Members per group at each of the shortlist's pruning levels: columns per
# group, and groups per super-group.
_GROUP = 8


def _k_nearest(
    queries: np.ndarray, points: np.ndarray, k: int
) -> tuple[np.ndarray, np.ndarray]:
    """Indices and distances of the min(k, n) nearest of n points, per query.

    Each row is ordered by (distance, point index), and the distances are
    those of `_distances`, bit for bit.  A float32 matrix product shortlists
    k + margin candidates per query, whose distances are then computed
    directly.  A query whose shortlist cannot be proven to hold its k
    nearest is ranked against all n points, so the result does not depend
    on BLAS, its thread count or how the shortlist was taken: one partition
    finds its k-th distance, and only the points at or below it are sorted.
    Queries go through in blocks that keep scratch memory near
    `_BLOCK_BYTES`.

    The product.  Points and queries are centred on the points' mean and
    scaled by one power of two s, chosen from both so that no scaled
    coordinate exceeds 1 and nothing overflows float32.  A point's row is
    (-2 p, |p|^2) and a query's (q, 1), so the float32 product already holds
    |p|^2 - 2 q.p: the Gram block is written once and read once.  |q|^2, a
    constant per row, is added to the shortlist alone.  The points are
    padded with zero rows to whole super-groups; a padding row's |p|^2 is
    4 (d + 1), above any real value (at most 3 d plus rounding), so padding
    is never shortlisted.

    The shortlist.  A query's values are viewed as `_GROUP` rows of
    `groups` columns, so group g holds points g, g + groups, ...; its group
    minima are viewed the same way as `_GROUP` rows of super-groups.  The
    k + margin super-groups with the smallest minima are kept, then the
    k + margin groups with the smallest minima among their groups, then the
    k + margin smallest values among those groups' columns; a level with no
    more members than that keeps them all.  A value left out at any level
    is >= the minimum of its super-group or group, which is >= the largest
    minimum kept at that level; the members kept there hold k + margin
    values no larger than that, so the value is >= last, the largest
    shortlisted one.

    The slack.  With u = 2^-24 and d < 2^22, a shortlisted value differs
    from s^2 times the true squared distance by at most
    slack = 4 (d + 4) u (|q|^2 + max |p|^2) + 16 (d + 1) 2^-126.
    With S = |q|^2 + |p|^2 it counts:
    - q and p centred in float64 and rounded to float32 after the exact
      scaling: u + 2^-52 per coordinate, 4 u S in the squared distance;
    - the (d + 1)-term float32 dot product, summed in any order:
      g (|q|^2 + 2 |p|^2) <= 2 g S, with g = (d + 1) u / (1 - (d + 1) u);
    - |p|^2 summed in float64 and rounded to float32: u |p|^2;
    - |q|^2 summed in float64 and added in float64: under u S;
    - float32 subnormals, kept or flushed to zero: at most 2^-126 per
      coordinate, product and sum, (11 d + 3) 2^-126 in all.
    As (d + 1) u <= 1/4, g <= 4 (d + 1) u / 3, and the relative terms sum
    to under 4 (d + 4) u S, second-order terms included.  Scaled back by
    s^-2, every left-out point has a true squared distance >= last - slack,
    and k shortlisted points lie within kth + slack.  A gap that also clears
    the float64 direct form's rounding, relative (`direct_error`) and
    absolute (d 2^-1074 for its subnormal squares, plus the rounding of the
    scaled-back values), puts every left-out point strictly beyond the k-th
    nearest.  Points beyond `core._feature_limit` can overflow the
    scaled-back values; such a row is not proven.
    """
    n, dim = points.shape
    k = min(k, n)
    if k == 0 or not len(queries):
        return np.empty((len(queries), k), dtype=np.intp), np.empty((len(queries), k))
    width = min(n, k + _SHORTLIST_MARGIN)
    supers = -(-n // _GROUP**2)
    groups = supers * _GROUP
    center = points.mean(axis=0)
    # Points as columns, as `_distances` reads them.
    coords = np.ascontiguousarray(points.T)
    shifted = points - center
    # Rounding is monotone, so each coordinate's extreme queries give the
    # largest centred query coordinate.
    largest = max(
        np.abs(shifted).max(initial=0.0),
        np.abs(queries.max(axis=0) - center).max(initial=0.0),
        np.abs(queries.min(axis=0) - center).max(initial=0.0),
    )
    shift = -math.frexp(largest)[1]
    # Rows (-2 p, |p|^2), padded to whole super-groups.
    bag = np.zeros((groups * _GROUP, dim + 1), dtype=np.float32)
    np.ldexp(shifted, shift, out=bag[:n, :dim])
    sq_points = np.square(bag[:n, :dim], dtype=float).sum(axis=1)
    bag[:n, :dim] *= -2
    bag[:n, dim] = sq_points
    bag[n:, dim] = 4 * (dim + 1)
    # The slack in scaled units is rel_error |q|^2 + slack_floor.
    rel_error = 4 * (dim + 4) * 2.0**-24
    slack_floor = rel_error * sq_points.max() + 16 * (dim + 1) * 2.0**-126
    # Relative and absolute error of a direct-form squared distance and its
    # square root; the absolute part also takes the scaled-back values'.
    direct_error = 2 * (dim + 8) * np.finfo(float).eps
    direct_floor = (dim + 4) * np.finfo(float).smallest_subnormal
    # Per row: the float32 Gram block and its group minima, the super-group
    # minima and their partition, each lower level's kept members with
    # their flat indices, values and partition, and the direct form.
    per_row = 4 * groups * (_GROUP + 1) + 12 * supers + 56 * _GROUP * width
    rows = max(1, _BLOCK_BYTES // (per_row + 16 * width * (dim + 1)))
    # One Gram buffer serves every block: a new matrix per block would be
    # allocated while the last one is still held, and fault in its pages.
    buffer = np.empty((min(rows, len(queries)), groups * _GROUP), dtype=np.float32)
    lifted = np.ones((len(buffer), dim + 1), dtype=np.float32)
    # Each row's offset in a flattened level, per unit of its width, and
    # the offset of a group's members per unit of the group count.
    lines = np.arange(len(buffer))[:, None]
    steps = np.arange(_GROUP)[:, None]
    index = np.empty((len(queries), k), dtype=np.intp)
    dist = np.empty((len(queries), k))
    for start in range(0, len(queries), rows):
        block = queries[start : start + rows]
        stop = start + len(block)
        if width == n:
            cand = np.broadcast_to(np.arange(n), (len(block), n))
            proven = np.ones(len(block), dtype=bool)
        else:
            q = lifted[: len(block)]
            np.ldexp(block - center, shift, out=q[:, :dim])
            sq_q = np.square(q[:, :dim], dtype=float).sum(axis=1)
            gram = np.matmul(q, bag.T, out=buffer[: len(block)])
            minima = gram.reshape(len(block), _GROUP, groups).min(axis=1)
            tops = minima.reshape(len(block), _GROUP, supers).min(axis=1)
            keep = min(width, supers)
            cand = np.argpartition(tops, keep - 1, axis=1)[:, :keep]
            # Groups of the kept super-groups, then columns of the kept groups.
            for level in (minima, gram):
                span = level.shape[1]
                members = (cand[:, None, :] + span // _GROUP * steps).reshape(len(block), -1)
                values = np.take(level, members + span * lines[: len(block)])
                keep = min(width, members.shape[1])
                pick = np.argpartition(values, keep - 1, axis=1)[:, :keep]
                cand = np.take_along_axis(members, pick, axis=1)
            cand.sort(axis=1)
            # |q|^2 is added to the shortlist alone: a constant per row does
            # not change the order within the row.
            shortlist = np.take_along_axis(values, pick, axis=1) + sq_q[:, None]
            kth = np.partition(shortlist, k - 1, axis=1)[:, k - 1]
            last = shortlist.max(axis=1)
            kth, last, slack = (
                np.ldexp(x, -2 * shift) for x in (kth, last, rel_error * sq_q + slack_floor)
            )
            proven = last - kth > 2 * slack + direct_error * (
                np.abs(last) + np.abs(kth) + 2 * slack
            ) + direct_floor
        d = _distances(coords[:, cand], block.T[:, :, None])
        order = np.argsort(d, axis=1, kind="stable")[:, :k]
        index[start:stop] = np.take_along_axis(cand, order, axis=1)
        dist[start:stop] = np.take_along_axis(d, order, axis=1)
        for row in np.flatnonzero(~proven):
            full = _distances(coords, block[row, :, None])
            # Indices come out ascending, so a stable sort of the points at
            # or below the k-th distance keeps (distance, index) order.
            near = np.flatnonzero(full <= np.partition(full, k - 1)[k - 1])
            nearest = near[np.argsort(full[near], kind="stable")[:k]]
            index[start + row] = nearest
            dist[start + row] = full[nearest]
    return index, dist


def score_dataset(
    measure: MeasureSpec, bag: TrainingBag | None, data: Dataset
) -> Dataset:
    """Return `data` with the score column of the chosen measure.

    Passthrough requires precomputed scores and returns `data` itself; the
    nearest-neighbour measures require features plus a bag and rank it with
    `_k_nearest`, so distance ties among bag points go to the lower index.
    """
    if measure.kind == "passthrough":
        data.require("scores", why="passthrough needs precomputed scores")
        return data

    if bag is None:
        raise ValueError(f"measure {measure.kind!r} needs a training bag")
    if len(data) == 0:
        return data.with_scores(np.empty((0, 2)), measure.kind == "knn_prob")
    data.require("features", why=f"measure {measure.kind!r} needs features")
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

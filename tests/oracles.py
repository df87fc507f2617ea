"""Brute-force references: scorers one query point at a time, a row-by-row
writer and the region of each pair of kept labels.

The scorers use only the public `TrainingBag` and `Label` of bincp:
distances, the stable sort and the means of the k smallest distances are
written out here, means summed smallest first, so the batch kernels must
match them with ==.  The writer formats every field of every row itself,
so the column writer must match its bytes.
"""

import csv
import functools
import io
import math
import operator

import numpy as np

from bincp.core import REGIONS, Label, PredictionRegion

# The region that keeps the positive label, the negative label, both or neither.
REGION_KEEPING = {
    (True, True): PredictionRegion.BOTH,
    (True, False): PredictionRegion.SINGLE_POSITIVE,
    (False, True): PredictionRegion.SINGLE_NEGATIVE,
    (False, False): PredictionRegion.EMPTY,
}


def distances(points, x):
    """Euclidean distance from `x` to each row of `points`."""
    return np.sqrt(((points - x) ** 2).sum(axis=1))


def mean_smallest(dists, k):
    """Mean of the up-to-k smallest values, summed smallest first; +inf if none."""
    if dists.size == 0:
        return math.inf
    smallest = np.sort(dists)[:k].tolist()
    return functools.reduce(operator.add, smallest) / len(smallest)


def ratio(d_same, d_diff):
    """d_same / d_diff, with degenerate cases fixed as its monotone limits."""
    if d_same == 0.0 and d_diff == 0.0:
        return 1.0
    if math.isinf(d_same) and math.isinf(d_diff):
        return 1.0
    if d_diff == 0.0 or math.isinf(d_same):
        return math.inf
    if d_same == 0.0 or math.isinf(d_diff):
        return 0.0
    return d_same / d_diff


def knn_distance_ratio(bag, point, hypothesized, k=1):
    """Mean distance to the k nearest same-label bag points over other-label ones.

    A pool smaller than k gives the mean of what it has; an empty same-label
    pool gives +inf, an empty other-label pool 0.
    """
    d = distances(bag.points, np.asarray(point, dtype=float))
    same = bag.is_positive == (hypothesized is Label.POSITIVE)
    return ratio(mean_smallest(d[same], k), mean_smallest(d[~same], k))


def knn_positive_fraction(bag, point, k):
    """Fraction of positives among the k nearest bag points, ties to the lower index."""
    d = distances(bag.points, np.asarray(point, dtype=float))
    nearest = np.argsort(d, kind="stable")[:k]
    return float(bag.is_positive[nearest].mean())


def mean_smallest_rows(block, k):
    """`mean_smallest` of the finite values of each row; sorts `block` in place."""
    block.sort(axis=1)
    finite = np.isfinite(block[:, :k])
    # A cumulative sum adds the values left to right, smallest first.
    total = np.cumsum(np.where(finite, block[:, :k], 0.0), axis=1)[:, -1]
    counts = finite.sum(axis=1)
    return [t / c if c else math.inf for t, c in zip(total.tolist(), counts.tolist())]


def pairwise_distances(points):
    """The matrix of `distances` from each row of `points` to every row."""
    return np.array([distances(points, p) for p in points])


def loo_p_values(dist, is_positive, k):
    """(p_pos, p_neg) of a candidate, every alpha recomputed from scratch.

    `dist` holds the pairwise distances of the bag's members and the
    candidate, the candidate last; `is_positive` labels the members.  Under
    each hypothesis every point is scored by the distance ratio against all
    the others, and the p-value is the fraction of points at least as
    strange as the candidate, the candidate included.
    """
    # +inf marks a point outside a pool; no point is its own neighbour.
    dist = dist.copy()
    np.fill_diagonal(dist, math.inf)
    result = []
    for hypothesis in (True, False):
        labels = np.append(is_positive, hypothesis)
        same = labels[:, None] == labels[None, :]
        alphas = [
            ratio(d_same, d_diff)
            for d_same, d_diff in zip(
                mean_smallest_rows(np.where(same, dist, math.inf), k),
                mean_smallest_rows(np.where(same, math.inf, dist), k),
            )
        ]
        result.append(sum(a >= alphas[-1] for a in alphas) / len(alphas))
    return tuple(result)


def regions_csv_rows(result):
    """The regions CSV of a `PipelineResult`, one `writerow` per test row and epsilon."""
    buffer = io.StringIO()
    writer = csv.writer(buffer, lineterminator="\n")
    writer.writerow(["epsilon", "id", "true_label", "p_pos", "p_neg", "region"])
    names = {-1: "", 0: str(Label.NEGATIVE), 1: str(Label.POSITIVE)}
    for epsilon, codes in result.regions.items():
        for sample_id, label, p_pos, p_neg, code in zip(
            result.test.ids, result.test.labels, *result.p_values, codes
        ):
            writer.writerow([
                repr(float(epsilon)), sample_id, names[int(label)],
                repr(float(p_pos)), repr(float(p_neg)), str(REGIONS[code]),
            ])
    return buffer.getvalue().encode("utf-8")

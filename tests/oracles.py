"""Brute-force reference scorers, one query point at a time.

They use only the public `TrainingBag` and `Label` of bincp: distances,
the stable sort and the means of the k smallest distances are written out
here, means summed smallest first, so the batch kernels must match them
with ==.
"""

import functools
import math
import operator

import numpy as np

from bincp.core import Label


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

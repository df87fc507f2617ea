"""On-line transductive prediction with the nearest-neighbour distance ratio.

Each round follows the same protocol: score a fresh candidate against the
current bag under both label hypotheses, emit the induced region, then reveal
the true label and absorb the candidate into the bag.  The p-value of a
hypothesis comes from the augmented bag itself: every member (candidate
included) is scored leave-one-out, and the p-value is the fraction of members
at least as strange as the candidate.  No separate calibration set exists.

One engine, `_OnlineSession`, implements this.  It keeps every member's k
nearest same-label and other-label distances, so a round computes the
candidate's distances to the bag once and inserts them into those lists:
O(n * (d + k)) for a bag of n points in d dimensions.  `run_online` drives
it over a stream; `full_cp_pvalue` is the p-value of a single candidate.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Iterable, Sequence

import numpy as np

from .core import Label, PredictionRegion, SignificanceLevel
from .nonconformity import TrainingBag, _distances, _k_nearest, _ratio_array

# Row 0 is the positive hypothesis, row 1 the negative one.
_HYPOTHESES = np.array([[True], [False]])


def _insert(block: np.ndarray, values: np.ndarray) -> np.ndarray:
    """Each sorted column of `block` with its value inserted and its largest dropped."""
    before = np.empty_like(block)
    before[0] = -np.inf
    before[1:] = block[:-1]
    return np.minimum(block, np.maximum(before, values))


def _pool_means(block: np.ndarray) -> np.ndarray:
    """Mean of each column's finite entries, summed top down; +inf if none.

    Columns are sorted, so the +inf padding of a pool smaller than k comes
    last, and the sum runs smallest first, as in batch scoring.
    """
    finite = np.isfinite(block)
    sums = np.zeros(block.shape[1])
    for row in np.where(finite, block, 0.0):
        sums += row
    counts = finite.sum(axis=0)
    with np.errstate(invalid="ignore"):
        return np.where(counts > 0, sums / counts, np.inf)


class _OnlineSession:
    """A bag with, per member, its k nearest same- and other-label distances.

    Column i of `same` and of `diff` belongs to bag member i; it is sorted
    ascending and padded with +inf when the pool holds fewer than k points.
    `p_values` scores a candidate under both hypotheses; `absorb` then adds
    it to the bag with its revealed label.
    """

    def __init__(self, bag: TrainingBag, k: int):
        if k < 1:
            raise ValueError(f"k must be >= 1, got {k}")
        self.k = k
        self.points = bag.points
        self.is_positive = bag.is_positive
        self.same = np.full((k, len(bag)), np.inf)
        self.diff = np.full((k, len(bag)), np.inf)
        for label in (True, False):
            rows = self.is_positive == label
            members = self.points[rows]
            # Every member is its own nearest point, at distance 0.
            same = _k_nearest(members, members, k + 1)[1][:, 1:]
            diff = _k_nearest(members, self.points[~rows], k)[1]
            self.same[: same.shape[1], rows] = same.T
            self.diff[: diff.shape[1], rows] = diff.T

    def p_values(self, features: Sequence[float]) -> tuple[float, float]:
        """Leave-one-out p-values of a candidate labelled positive and negative."""
        point = np.asarray(list(features), dtype=float)
        if point.shape != (self.points.shape[1],):
            raise ValueError(
                f"expected {self.points.shape[1]} features, got {point.shape}"
            )
        if not np.isfinite(point).all():
            raise ValueError("candidate features must be finite")
        d = _distances(self.points, point)
        match = self.is_positive == _HYPOTHESES
        self._point = point
        self._same_in = _insert(self.same, d)
        self._diff_in = _insert(self.diff, d)
        # The candidate's k nearest of each class, positive pool first.
        pools = np.hstack([np.where(match, d, np.inf), np.full((2, self.k), np.inf)])
        nearest = np.partition(pools, self.k - 1, axis=1)[:, : self.k]
        self._pools = np.sort(nearest, axis=1)
        # Members of the hypothesized label gain the candidate as a same-label
        # neighbour, the others as an other-label one.
        same = np.where(match, _pool_means(self._same_in), _pool_means(self.same))
        diff = np.where(match, _pool_means(self.diff), _pool_means(self._diff_in))
        candidate = _pool_means(self._pools.T)
        alphas = _ratio_array(
            np.column_stack([same, candidate]),
            np.column_stack([diff, candidate[::-1]]),
        )
        # The last column is the candidate, which counts for itself.
        p = (alphas >= alphas[:, -1:]).sum(axis=1) / alphas.shape[1]
        return float(p[0]), float(p[1])

    def absorb(self, label: Label) -> None:
        """Add the candidate of the last `p_values` call with its revealed label."""
        is_pos = label is Label.POSITIVE
        match = self.is_positive == is_pos
        own, other = self._pools if is_pos else self._pools[::-1]
        self.same = np.column_stack([np.where(match, self._same_in, self.same), own])
        self.diff = np.column_stack([np.where(match, self.diff, self._diff_in), other])
        self.points = np.vstack([self.points, self._point])
        self.is_positive = np.append(self.is_positive, is_pos)


def full_cp_pvalue(
    bag: TrainingBag, candidate: tuple[Sequence[float], Label], k: int = 1
) -> float:
    """Leave-one-out p-value of a labelled candidate against the whole bag.

    The bag is augmented with the candidate, every member of the augmented
    bag is scored against the bag minus itself with the distance-ratio
    measure, and the returned value is |{i : alpha_i >= alpha_candidate}|
    over n + 1, the candidate counting for itself.
    """
    features, label = candidate
    p_pos, p_neg = _OnlineSession(bag, k).p_values(features)
    return p_pos if label is Label.POSITIVE else p_neg


@dataclass(frozen=True)
class OnlineRound:
    """One row of a trajectory."""

    round_index: int
    region: PredictionRegion
    true_label: Label
    cumulative_error_rate: float


def run_online(
    initial: TrainingBag,
    stream: Iterable[tuple[Sequence[float], Label]],
    eps: SignificanceLevel,
    k: int = 1,
) -> list[OnlineRound]:
    """Run the full predict-reveal-absorb protocol over a stream, one item a round."""
    session = _OnlineSession(initial, k)
    rounds: list[OnlineRound] = []
    errors = 0
    for index, (features, label) in enumerate(stream, start=1):
        p_pos, p_neg = session.p_values(features)
        predicted = PredictionRegion.from_membership(
            p_pos > eps.epsilon, p_neg > eps.epsilon
        )
        if not predicted.contains(label):
            errors += 1
        rounds.append(OnlineRound(index, predicted, label, errors / index))
        session.absorb(label)
    if not rounds:
        raise ValueError("stream must not be empty")
    return rounds

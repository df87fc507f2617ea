"""On-line transductive prediction with the nearest-neighbour distance ratio.

Each round follows the same protocol: score a fresh candidate against the
current bag under both label hypotheses, then reveal the true label and
absorb the candidate into the bag.  The p-value of a hypothesis comes from
the augmented bag itself: every member (candidate included) is scored
leave-one-out, and the p-value is the fraction of members at least as
strange as the candidate.  No separate calibration set exists.

One engine, `_OnlineSession`, implements this.  It caches every member's k
nearest same-label and other-label distances, their means and its alpha, so
a round computes the candidate's distances once and rescores only the members
U whose k nearest it enters: O(n * d + k * |U|) for a bag of n points in d
dimensions, plus amortised buffer growth.  `run_online` drives it over a
stream, then reads every round's region off the p-value columns with one
`icp.region` call and its errors off `core.COVERAGE`, as evaluation does.
`full_cp_pvalue` is the p-value of a single candidate.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Iterable, Sequence

import numpy as np

from .core import COVERAGE, NEGATIVE, POSITIVE, REGIONS, Label, PredictionRegion, SignificanceLevel
from .core import _check_label, _feature_limit
from .icp import region
from .nonconformity import TrainingBag, _distances, _k_nearest, _pool_means, _ratio_array

# Row 0 is the positive hypothesis, row 1 the negative one.
_HYPOTHESES = np.array([[True], [False]])


def _insert(block: np.ndarray, values: np.ndarray) -> np.ndarray:
    """Each sorted column of `block` with its value inserted and its largest dropped."""
    before = np.empty_like(block)
    before[0] = -np.inf
    before[1:] = block[:-1]
    return np.minimum(block, np.maximum(before, values))


class _OnlineSession:
    """A bag with each member's k nearest same- and other-label distances,
    their two means (rows of `means`) and its alpha.

    Column i of `same` and of `diff` belongs to member i; it is sorted
    ascending and padded with +inf when the pool holds fewer than k points.
    The first `n` entries of each array are the bag.  Capacity doubles when
    the bag fills it; the lists keep min(k, capacity) rows, as no pool
    outgrows the bag.  `p_values` rescores the members whose k nearest the
    candidate enters, and `absorb` writes them back and appends it.
    """

    def __init__(self, bag: TrainingBag, k: int):
        if k < 1:
            raise ValueError(f"k must be >= 1, got {k}")
        self.k, self.n = k, len(bag)
        self.limit = _feature_limit(bag.dim)
        self.points = bag.points.copy()
        self.is_positive = bag.is_positive.copy()
        self.same = np.full((min(k, self.n), self.n), np.inf)
        self.diff = self.same.copy()
        for label in (True, False):
            rows = self.is_positive == label
            members = self.points[rows]
            # Every member is its own nearest point, at distance 0.
            same = _k_nearest(members, members, k + 1)[1][:, 1:]
            diff = _k_nearest(members, self.points[~rows], k)[1]
            self.same[: same.shape[1], rows] = same.T
            self.diff[: diff.shape[1], rows] = diff.T
        self.means = np.vstack([_pool_means(self.same), _pool_means(self.diff)])
        self.alphas = _ratio_array(*self.means)
        self._pending = None

    def p_values(self, features: Sequence[float]) -> tuple[float, float]:
        """Leave-one-out p-values of a candidate labelled positive and negative."""
        self._pending = None
        point = np.asarray(list(features), dtype=float)
        if point.shape != (self.points.shape[1],):
            raise ValueError(
                f"expected {self.points.shape[1]} features, got {point.shape}"
            )
        # A NaN fails the comparison as well.
        if not np.abs(point).max(initial=0.0) <= self.limit:
            if not np.isfinite(point).all():
                raise ValueError("candidate features must be finite")
            raise ValueError(
                f"candidate features must be within ±{self.limit:.4g}, "
                "or squared distances overflow"
            )
        n, rows = self.n, len(self.same)
        d = _distances(self.points[:n], point)
        match = self.is_positive[:n] == _HYPOTHESES
        # The candidate's k nearest of each class, positive pool first.
        pools = np.hstack([np.where(match, d, np.inf), np.full((2, rows), np.inf)])
        nearest = np.sort(np.partition(pools, rows - 1, axis=1)[:, :rows], axis=1)
        # Only members with d below their k-th same- or other-label distance
        # gain the candidate as a neighbour; the rest keep means and alphas.
        changed = np.flatnonzero((d < self.same[-1, :n]) | (d < self.diff[-1, :n]))
        same_in = _insert(self.same[:, changed], d[changed])
        diff_in = _insert(self.diff[:, changed], d[changed])
        means = _pool_means(np.hstack([same_in, diff_in, nearest.T]))
        m = len(changed)
        same_new, diff_new, candidate = means[:m], means[m : 2 * m], means[2 * m :]
        same_old, diff_old = self.means[:, changed]
        # Members of the hypothesized label gain the candidate as a same-label
        # neighbour, the others as an other-label one.
        hit = match[:, changed]
        alphas = _ratio_array(
            np.column_stack([np.where(hit, same_new, same_old), candidate]),
            np.column_stack([np.where(hit, diff_old, diff_new), candidate[::-1]]),
        )
        # The last column is the candidate, which counts for itself; members
        # outside `changed` count with their cached alphas.
        a_c = alphas[:, -1:]
        count = (self.alphas[:n] >= a_c).sum(axis=1) + (alphas >= a_c).sum(axis=1)
        count -= (self.alphas[changed] >= a_c).sum(axis=1)
        self._pending = point, changed, same_in, diff_in, means, alphas, nearest
        return float(count[0] / (n + 1)), float(count[1] / (n + 1))

    def absorb(self, label: Label) -> None:
        """Add the last `p_values` candidate, once, with its revealed label."""
        if self._pending is None:
            raise ValueError("absorb needs a candidate from p_values first")
        point, changed, same_in, diff_in, means, alphas, nearest = self._pending
        self._pending = None
        is_pos, n, m = label is Label.POSITIVE, self.n, len(changed)
        hit = self.is_positive[changed] == is_pos
        self.same[:, changed[hit]] = same_in[:, hit]
        self.diff[:, changed[~hit]] = diff_in[:, ~hit]
        self.means[0, changed[hit]] = means[:m][hit]
        self.means[1, changed[~hit]] = means[m : 2 * m][~hit]
        candidate = means[2 * m :]
        if not is_pos:
            candidate, alphas, nearest = candidate[::-1], alphas[::-1], nearest[::-1]
        self.alphas[changed] = alphas[0, :-1]
        if n == len(self.alphas):
            grow = [(0, min(self.k, 2 * n) - len(self.same)), (0, n)]
            self.same = np.pad(self.same, grow, constant_values=np.inf)
            self.diff = np.pad(self.diff, grow, constant_values=np.inf)
            self.points = np.pad(self.points, [(0, n), (0, 0)])
            self.means = np.pad(self.means, [(0, 0), (0, n)])
            self.is_positive = np.pad(self.is_positive, (0, n))
            self.alphas = np.pad(self.alphas, (0, n))
        self.same[: nearest.shape[1], n], self.diff[: nearest.shape[1], n] = nearest
        self.means[:, n], self.alphas[n] = candidate, alphas[0, -1]
        self.points[n], self.is_positive[n] = point, is_pos
        self.n = n + 1


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
    label = _check_label(label)
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
    """Run the full predict-reveal-absorb protocol over a stream, one item a round.

    A stream item is (features, label); a label not a `Label` member is an error.
    The rounds' regions and errors are read off their p-value columns once
    the stream ends, as in a batch run.
    """
    session = _OnlineSession(initial, k)
    p_values, labels = [], []
    for features, label in stream:
        labels.append(_check_label(label))
        p_values.append(session.p_values(features))
        session.absorb(label)
    if not labels:
        raise ValueError("stream must not be empty")
    index = np.arange(1, len(labels) + 1)
    codes = region(*np.transpose(p_values), eps)
    truth = np.where([label is Label.POSITIVE for label in labels], POSITIVE, NEGATIVE)
    rates = np.cumsum(~COVERAGE[truth, codes]) / index
    regions = [REGIONS[code] for code in codes.tolist()]
    return list(map(OnlineRound, index.tolist(), regions, labels, rates.tolist()))

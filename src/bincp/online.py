"""On-line transductive prediction with the nearest-neighbour distance ratio.

Each round follows the same protocol: score a fresh candidate against the
current bag under both label hypotheses, then reveal the true label and
absorb the candidate into the bag.  The p-value of a hypothesis comes from
the augmented bag itself: every member (candidate included) is scored
leave-one-out, and the p-value is the fraction of members at least as
strange as the candidate.  No separate calibration set exists.

One engine, `_OnlineSession`, implements this, and a round is one call of
its `step`: it checks the candidate and its label, computes both p-values
before it reads the label, then absorbs the candidate.  It holds the bag
by class and coordinate-major, and caches every member's k nearest
same-label and other-label distances, their means and its alpha, so a
round computes the candidate's distances once and rescores only the members
U whose k nearest it enters: O(n * d + k * |U|) for a bag of n points in d
dimensions, plus amortised buffer growth, each O(n) pass elementwise over
contiguous rows.  `run_online` drives it over a stream, one `step` a round,
then reads every round's region off the p-value columns with one
`icp.region` call and its errors off `core.COVERAGE`, as evaluation does.
`full_cp_pvalue` is the p-value of a single candidate.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Iterable, Sequence

import numpy as np

from .core import COVERAGE, NEGATIVE, POSITIVE, REGIONS, Label, PredictionRegion, SignificanceLevel
from .core import _check_label, _check_points
from .icp import region
from .nonconformity import MeasureSpec, TrainingBag, _distances, _k_nearest
from .nonconformity import _pool_means, _ratio_array


def _insert(block: np.ndarray, values: np.ndarray) -> np.ndarray:
    """Each column of `block` (sorted down axis -2) with its value inserted
    and its largest dropped."""
    before = np.empty_like(block)
    before[..., 0, :] = -np.inf
    before[..., 1:, :] = block[..., :-1, :]
    return np.minimum(block, np.maximum(before, values))


class _OnlineSession:
    """A bag held by class, coordinate-major, a member per column.

    The first `n_pos` columns are the positive members and the rest of the
    first `n` the negative ones; order within a class is free, as p-values
    depend only on distances and counts.  `coords` is (d, capacity).
    `lists` is (2, rows, capacity): side 0 holds the k nearest same-label
    distances and side 1 the other-label ones, each column sorted ascending
    and padded with +inf when its pool holds fewer than k points.  `means`
    holds the two sides' means, `alphas` the alphas and `reach` the larger
    last entry, which a candidate must undercut to enter a list.  Capacity
    doubles when the bag fills it; the lists keep min(k, capacity) rows, as
    no pool outgrows the bag.
    """

    def __init__(self, bag: TrainingBag, k: int):
        MeasureSpec("knn_ratio", k)  # the batch measure's k rule
        self.k, self.n = k, len(bag)
        self.n_pos = int(bag.is_positive.sum())
        classes = bag.points[bag.is_positive], bag.points[~bag.is_positive]
        self.coords = np.ascontiguousarray(np.concatenate(classes).T)
        self.lists = np.full((2, min(k, self.n), self.n), np.inf)
        for c, members in enumerate(classes):
            cols = slice(0, self.n_pos) if c == 0 else slice(self.n_pos, self.n)
            # Every member is its own nearest point, at distance 0.
            same = _k_nearest(members, members, k + 1)[1][:, 1:]
            diff = _k_nearest(members, classes[1 - c], k)[1]
            self.lists[0, : same.shape[1], cols] = same.T
            self.lists[1, : diff.shape[1], cols] = diff.T
        self.means = _pool_means(self.lists)
        self.alphas = _ratio_array(*self.means)
        self.reach = np.maximum(*self.lists[:, -1])

    def step(self, features: Sequence[float], label: Label) -> tuple[float, float]:
        """One round: the leave-one-out p-values of a candidate labelled
        positive and negative; then the candidate joins the bag with its
        revealed `label`.  Both inputs are checked before the bag changes."""
        h = 0 if _check_label(label) is Label.POSITIVE else 1
        point = np.asarray(list(features), dtype=float)
        if point.shape != (len(self.coords),):
            raise ValueError(f"expected {len(self.coords)} features, got {point.shape}")
        _check_points(point, "candidate features")
        n, n_pos, rows = self.n, self.n_pos, len(self.lists[0])
        d = _distances(self.coords[:, :n], point[:, None])
        # Only members nearer the candidate than their reach gain it as a
        # neighbour; the rest keep their means and alphas.
        changed = (d < self.reach[:n]).nonzero()[0]
        values = np.concatenate([d[changed], [np.inf]])
        # The candidate's own lists are the block's last column: its k
        # nearest of each class, positive first, which an infinite distance
        # leaves as they are.  Each class's distances are cut in place.
        nearest = np.full((2, rows, 1), np.inf)
        for c, pool in enumerate((d[:n_pos], d[n_pos:])):
            r = min(rows, len(pool))
            if r:
                pool.partition(r - 1)
                pool[:r].sort()
                nearest[c, :r, 0] = pool[:r]
        lists = _insert(np.concatenate([self.lists[:, :, changed], nearest], axis=2), values)
        new = _pool_means(lists)
        # means[h]: the means as if the candidate entered both lists of the
        # members labelled h and neither of the rest's.  Under hypothesis h
        # it enters the same-label lists of the first and the other-label
        # lists of the rest, so the alphas are means[h, 0] / means[1 - h, 1];
        # the candidate's own column is its pool means, positive in means[0].
        m_pos = changed.searchsorted(n_pos)
        old = self.means[:, changed]
        means = new[None].repeat(2, axis=0)
        means[1, :, :m_pos] = old[:, :m_pos]
        means[0, :, m_pos:-1] = old[:, m_pos:]
        means[:, :, -1] = new[:, -1:]
        alphas = _ratio_array(means[:, 0], means[::-1, 1])
        # The candidate counts for itself; members outside `changed` count
        # with their cached alphas.
        a_c = alphas[:, -1:]
        count = (self.alphas[:n] >= a_c).sum(axis=1) + (alphas >= a_c).sum(axis=1)
        count -= (self.alphas[changed] >= a_c).sum(axis=1)
        p_values = float(count[0] / (n + 1)), float(count[1] / (n + 1))

        # The label is revealed: the candidate joins side h of the
        # positives' lists and side 1 - h of the negatives'.
        for side, members, cols in ((h, changed[:m_pos], slice(0, m_pos)),
                                    (1 - h, changed[m_pos:], slice(m_pos, -1))):
            self.lists[side][:, members] = lists[side, :, cols]
            self.means[side, members] = new[side, cols]
        self.alphas[changed] = alphas[h, :-1]
        self.reach[changed] = np.maximum(*self.lists[:, -1, changed])
        if n == len(self.alphas):
            grow = min(self.k, 2 * n) - rows
            self.lists = np.pad(self.lists, [(0, 0), (0, grow), (0, n)], constant_values=np.inf)
            self.coords = np.pad(self.coords, [(0, 0), (0, n)])
            self.means = np.pad(self.means, [(0, 0), (0, n)])
            self.alphas = np.pad(self.alphas, (0, n))
            # New rows are padding, which any candidate enters.
            self.reach = np.maximum(*self.lists[:, -1])
        column = n
        if h == 0:
            # The first negative moves to the end to make room.
            for array in (self.coords, self.lists, self.means, self.alphas, self.reach):
                array[..., n] = array[..., self.n_pos]
            column, self.n_pos = self.n_pos, self.n_pos + 1
        # Its own lists and means, same-label side first.
        order = slice(None, None, 1 - 2 * h)
        self.coords[:, column] = point
        self.lists[:, : lists.shape[1], column] = lists[order, :, -1]
        self.means[:, column] = new[order, -1]
        self.alphas[column] = alphas[h, -1]
        self.reach[column] = max(self.lists[:, -1, column])
        self.n = n + 1
        return p_values


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
    # The session is discarded, so the candidate's absorption goes unused.
    p_pos, p_neg = _OnlineSession(bag, k).step(features, label)
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
        p_values.append(session.step(features, label))
        labels.append(label)
    if not labels:
        raise ValueError("stream must not be empty")
    index = np.arange(1, len(labels) + 1)
    codes = region(*np.transpose(p_values), eps)
    truth = np.where([label is Label.POSITIVE for label in labels], POSITIVE, NEGATIVE)
    rates = np.cumsum(~COVERAGE[truth, codes]) / index
    regions = [REGIONS[code] for code in codes.tolist()]
    return list(map(OnlineRound, index.tolist(), regions, labels, rates.tolist()))

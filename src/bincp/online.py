"""On-line transductive prediction with the nearest-neighbour distance ratio.

Each round follows the same protocol: score a fresh candidate against the
current bag under both label hypotheses, then reveal the true label and
absorb the candidate into the bag.  The p-value of a hypothesis comes from
the augmented bag itself: every member (candidate included) is scored
leave-one-out, and the p-value is the fraction of members at least as
strange as the candidate.  No separate calibration set exists.

One engine, `_OnlineSession`, caches every member's neighbour lists, and a
round is one call of its `step`, which rescores only the members U whose
k nearest the candidate enters.  That is O(n * d + k * |U|) for a bag of n
points in d dimensions, plus amortised table growth, each O(n) pass
elementwise over contiguous rows.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Iterable, Sequence

import numpy as np

from .core import COVERAGE, REGIONS, Label, PredictionRegion, SignificanceLevel
from .core import _LABELS, _check_label, _check_points
from .icp import region
from .nonconformity import MeasureSpec, TrainingBag, _distances, _k_nearest
from .nonconformity import _pool_means, _ratio_array

# Names the one row a step checks; `format` ignores the row index.
_CANDIDATE = "candidate".format


class _OnlineSession:
    """A bag held by class in one float table, a member per column.

    The first `n_pos` columns are the positive members and the rest of the
    first `n` the negative ones; order within a class is free, as p-values
    depend only on distances and counts.  A column's rows are, top down:
    the member's `dim` coordinates; its k nearest same-label distances and
    then its k nearest other-label ones, each list sorted ascending, padded
    with +inf when its pool holds fewer than k points and followed by one
    spare row; the two lists' means; its alpha; and its reach, the larger
    last list entry, which a candidate must undercut to enter a list.  Every
    column past the bag is blank: coordinates 0 and every other row +inf, so
    its reach admits any candidate.  The table keeps at least one blank
    column, doubling its capacity when the bag reaches it, and the lists
    keep min(k, capacity) rows, as no pool outgrows the bag.
    """

    def __init__(self, bag: TrainingBag, k: int):
        MeasureSpec("knn_ratio", k)  # the batch measure's k rule
        self.k, self.dim, self.n = k, bag.dim, len(bag)
        self.n_pos = int(bag.is_positive.sum())
        self.table, self.rows = self._blank(2 * self.n)
        classes = bag.points[bag.is_positive], bag.points[~bag.is_positive]
        self.table[: self.dim, : self.n] = np.concatenate(classes).T
        lists = self._lists(self.table)
        for c, members in enumerate(classes):
            cols = slice(0, self.n_pos) if c == 0 else slice(self.n_pos, self.n)
            # Every member is its own nearest point, at distance 0.
            same = _k_nearest(members, members, k + 1)[1][:, 1:]
            diff = _k_nearest(members, classes[1 - c], k)[1]
            lists[0, : same.shape[1], cols] = same.T
            lists[1, : diff.shape[1], cols] = diff.T
        means = self.table[-4:-2, : self.n]
        means[:] = _pool_means(lists[:, : self.rows, : self.n])
        self.table[-2, : self.n] = _ratio_array(*means)
        self.table[-1] = np.maximum(*lists[:, self.rows - 1])

    def _blank(self, capacity: int) -> tuple[np.ndarray, int]:
        """A table of `capacity` blank columns and its list length."""
        rows = min(self.k, capacity)
        table = np.full((self.dim + 2 * rows + 6, capacity), np.inf)
        table[: self.dim] = 0.0
        return table, rows

    def _lists(self, block: np.ndarray) -> np.ndarray:
        """The list rows of a table or of columns taken from it, as a
        (side, row, column) view; the last row of each side is the spare."""
        return block[self.dim : -4].reshape(2, -1, block.shape[1])

    def step(self, features: Sequence[float], label: Label) -> tuple[float, float]:
        """One round: the leave-one-out p-values of a candidate labelled
        positive and negative; then the candidate joins the bag with its
        revealed `label`.  Both inputs are checked before the bag changes."""
        h = 0 if _check_label(label) is Label.POSITIVE else 1
        point = np.asarray(list(features), dtype=float)
        if point.shape != (self.dim,):
            raise ValueError(f"expected {self.dim} features, got {point.shape}")
        _check_points(point, _CANDIDATE)
        table, rows, n, n_pos = self.table, self.rows, self.n, self.n_pos
        d = _distances(table[: self.dim, : n + 1], point[:, None])
        # Only members nearer the candidate than their reach gain it as a
        # neighbour; the rest keep their means and alphas.  Blank column n
        # always qualifies and becomes the candidate's own column, whose
        # spare rows, read from `d` below, are +inf.
        changed = (d < table[-1, : n + 1]).nonzero()[0]
        d[n] = np.inf
        block = table.take(changed, axis=1)
        lists = self._lists(block)
        # The candidate's distance goes in every member's spare rows, and its
        # own lists are its k nearest of each class, positive first, unsorted;
        # sorting down the rows into `ranked` then inserts it into every list,
        # each list's largest entry dropping to the spare row.
        lists[:, rows] = d[changed]
        for c, pool in enumerate((d[:n_pos], d[n_pos:n])):
            r = min(rows, len(pool))
            if r:
                pool.partition(r - 1)
                lists[c, :r, -1] = pool[:r]
        ranked = np.sort(lists, axis=1)
        new = _pool_means(ranked[:, :rows])
        # means[h]: the means as if the candidate entered both lists of the
        # members labelled h and neither of the rest's.  Under hypothesis h
        # it enters the same-label lists of the first and the other-label
        # lists of the rest, so the alphas are means[h, 0] / means[1 - h, 1];
        # the candidate's own column is its pool means, positive in means[0].
        m_pos = changed.searchsorted(n_pos)
        old = block[-4:-2]
        means = new[None].repeat(2, axis=0)
        means[1, :, :m_pos] = old[:, :m_pos]
        means[0, :, m_pos:-1] = old[:, m_pos:-1]
        means[:, :, -1] = new[:, -1:]
        alphas = _ratio_array(means[:, 0], means[::-1, 1])
        # The candidate counts for itself; members outside `changed` count
        # with their cached alphas, those of `changed` with their new ones.
        # Until the block is written back, a cached alpha of -inf counts for
        # neither hypothesis.
        table[-2, changed] = -np.inf
        cached = table[-2, :n]
        count = [np.count_nonzero(cached >= a) + np.count_nonzero(row >= a)
                 for a, row in zip(alphas[:, -1].tolist(), alphas)]
        p_values = count[0] / (n + 1), count[1] / (n + 1)

        # The label is revealed and the block takes hypothesis h: the
        # candidate enters side h of the positives' lists and side 1 - h of
        # the negatives', whose ranked lists are written back, the other
        # sides keeping theirs; the means and alphas are hypothesis h's;
        # and the candidate's own lists go same-label side first.
        lists[h, :, :m_pos] = ranked[h, :, :m_pos]
        lists[1 - h, :, m_pos:-1] = ranked[1 - h, :, m_pos:-1]
        lists[:, :, -1] = ranked[:: 1 - 2 * h, :, -1]
        block[: self.dim, -1] = point
        block[-4] = means[h, 0]
        block[-3] = means[1 - h, 1]
        block[-2] = alphas[h]
        np.maximum(lists[0, rows - 1], lists[1, rows - 1], out=block[-1])
        if h == 0:
            # The first negative moves to blank column n to make room.
            table[:, n] = table[:, n_pos]
            if changed[m_pos] == n_pos:
                changed[m_pos] = n
            changed[-1] = n_pos
            self.n_pos = n_pos + 1
        table[:, changed] = block
        self.n = n + 1
        if self.n == table.shape[1]:
            self._grow()
        return p_values

    def _grow(self) -> None:
        """Double the capacity; the lists gain rows while they are shorter than k."""
        old, rows, n = self.table, self.rows, self.n
        self.table, self.rows = self._blank(2 * n)
        self.table[: self.dim, :n] = old[: self.dim, :n]
        lists = self._lists(self.table)
        lists[:, :rows, :n] = self._lists(old)[:, :rows, :n]
        self.table[-4:, :n] = old[-4:, :n]
        # New rows are padding, which any candidate enters.
        self.table[-1] = np.maximum(*lists[:, self.rows - 1])


def full_cp_pvalue(
    bag: TrainingBag, candidate: tuple[Sequence[float], Label], k: int = MeasureSpec.k
) -> float:
    """The p-value of a labelled candidate against the whole bag, under its own
    label, as one on-line round computes it."""
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
    k: int = MeasureSpec.k,
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
    rates = np.cumsum(~COVERAGE[list(map(_LABELS.index, labels)), codes]) / index
    regions = [REGIONS[code] for code in codes.tolist()]
    return list(map(OnlineRound, index.tolist(), regions, labels, rates.tolist()))

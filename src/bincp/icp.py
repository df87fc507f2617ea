"""Inductive calibration: data splitting, per-class score tables, p-values, regions.

The p-value of a label hypothesis is rank-based: the fraction of calibration
scores (of the matching class when Mondrian, pooled otherwise) that conform
no better than the test sample, counting the test sample itself.  Ties are
counted inclusively, which keeps the engine deterministic; passing a
generator as `rng` gives smoothed p-values, which randomize over ties.

P-values do not depend on epsilon, so a run computes the two p-value
columns of its test set once; the region at each epsilon is one comparison
of those columns with it, so regions nest as epsilon grows.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .core import Dataset, Label, SignificanceLevel, region_codes


@dataclass(frozen=True)
class SplitConfig:
    """How to divide one labelled dataset into proper-training and calibration parts."""

    proper_fraction: float
    seed: int
    stratified: bool = True

    def __post_init__(self) -> None:
        if not (
            math.isfinite(self.proper_fraction) and 0.0 < self.proper_fraction < 1.0
        ):
            raise ValueError(
                f"proper_fraction must be in (0, 1), got {self.proper_fraction}"
            )
        if self.seed < 0:
            raise ValueError(f"seed must be >= 0, got {self.seed}")


def _proper_count(n: int, fraction: float) -> int:
    return int(math.floor(fraction * n + 0.5))


def split_dataset(data: Dataset, config: SplitConfig) -> tuple[Dataset, Dataset]:
    """Split into (proper_training, calibration), deterministically for a fixed seed.

    The proper part gets round(fraction * n) samples (per class when
    stratified); if either part would come out empty, one sample moves over
    from the larger part.  Original sample order is preserved inside each part.
    """
    n = len(data)
    if n < 2:
        raise ValueError(f"need at least 2 samples to split, got {n}")
    if not data.fully_labelled():
        raise ValueError("split requires labelled samples")
    rng = np.random.default_rng(config.seed)
    chosen = np.zeros(n, dtype=bool)
    if config.stratified:
        for label, rows in (
            (Label.NEGATIVE, np.flatnonzero(~data.positive)),
            (Label.POSITIVE, np.flatnonzero(data.positive)),
        ):
            if not rows.size:
                raise ValueError(f"cannot stratify: no {label} samples")
            perm = rng.permutation(rows.size)
            chosen[rows[perm[: _proper_count(rows.size, config.proper_fraction)]]] = True
    else:
        chosen[rng.permutation(n)[: _proper_count(n, config.proper_fraction)]] = True

    if not chosen.any():
        # Calibration holds everything; promote one sample into proper.
        chosen[0] = True
    elif chosen.all():
        chosen[-1] = False
    return data.take(chosen), data.take(~chosen)


@dataclass(frozen=True)
class CalibrationTable:
    """Sorted conformity scores per hypothesized class.

    Mondrian tables keep the two true classes apart; pooled tables use one
    merged list (each sample scored under its own true label) for both sides.
    """

    pos_scores: np.ndarray
    neg_scores: np.ndarray

    def __post_init__(self) -> None:
        for name in ("pos_scores", "neg_scores"):
            raw = getattr(self, name)
            scores = np.array(raw, dtype=float)
            if scores.ndim != 1 or scores.size == 0:
                raise ValueError(f"{name} must be a nonempty 1-d array")
            if np.isnan(scores).any():
                raise ValueError(f"{name} must not contain NaN")
            if np.any(scores[1:] < scores[:-1]):
                raise ValueError(f"{name} must be sorted ascending")
            scores.flags.writeable = False
            object.__setattr__(self, name, scores)


def _check_scored(data: Dataset, name: str) -> None:
    """Raise unless the `name` set has rows, each with scores and a label."""
    data.require("scores", "labels", why=f"{name} samples need scores and labels")
    if len(data) == 0:
        raise ValueError(f"{name} set must not be empty")


def build_calibration_table(
    calibration: Dataset, mondrian: bool = True
) -> CalibrationTable:
    """Collect calibration scores into the sorted per-class (or pooled) table."""
    _check_scored(calibration, "calibration")
    scores, positive = calibration.scores, calibration.positive
    if mondrian:
        pos = np.sort(scores[positive, 0])
        neg = np.sort(scores[~positive, 1])
        if not pos.size or not neg.size:
            empty = Label.POSITIVE if not pos.size else Label.NEGATIVE
            raise ValueError(f"calibration has no {empty} samples")
        return CalibrationTable(pos, neg)
    pooled = np.sort(np.where(positive, scores[:, 0], scores[:, 1]))
    return CalibrationTable(pooled, pooled)


def p_values(
    table: CalibrationTable, s_pos, s_neg, *, rng: np.random.Generator | None = None
) -> tuple[np.ndarray, np.ndarray]:
    """p-values (positive, negative) of test score columns of any one shape.

    A p-value counts the calibration scores below the test score, plus tau
    times the ties and the test sample itself, over n + 1.  Without `rng`
    tau = 1; with one the p-values are smoothed: tau is drawn from `rng` in
    (0, 1] as one block with a trailing axis of two, row by row, the
    positive hypothesis first.  Each side's scores are sorted once and
    counted against the sorted table in that order, so each search starts
    where the last one ended; the counts are scattered back to the input
    order.
    """
    s_pos = np.asarray(s_pos, dtype=float)
    s_neg = np.asarray(s_neg, dtype=float)
    if s_pos.shape != s_neg.shape:
        raise ValueError(f"score shapes differ: {s_pos.shape} and {s_neg.shape}")
    if np.isnan(s_pos).any() or np.isnan(s_neg).any():
        raise ValueError("test scores must not be NaN")
    shape = s_pos.shape + (2,)
    tau = np.ones(shape) if rng is None else 1.0 - rng.random(shape)
    columns = []
    for side, (calibration_scores, scores) in enumerate(
        ((table.pos_scores, s_pos), (table.neg_scores, s_neg))
    ):
        order = np.argsort(scores, axis=None)
        keys = scores.ravel()[order]
        counts = np.empty((2, order.size), dtype=np.intp)
        counts[0, order] = np.searchsorted(calibration_scores, keys, side="left")
        counts[1, order] = np.searchsorted(calibration_scores, keys, side="right")
        below, at_most = counts.reshape((2,) + scores.shape)
        tied = at_most - below
        n = calibration_scores.size
        columns.append((below + tau[..., side] * (tied + 1)) / (n + 1))
    return columns[0], columns[1]


def region(p_pos, p_neg, eps: SignificanceLevel) -> np.ndarray:
    """Region codes (see `core.REGIONS`): keep every label whose p-value exceeds epsilon."""
    return region_codes(np.greater(p_pos, eps.epsilon), np.greater(p_neg, eps.epsilon))


def predict_set(
    table: CalibrationTable, tests: Dataset, *, rng: np.random.Generator | None = None
) -> tuple[np.ndarray, np.ndarray]:
    """The p-value columns (positive, negative) of every test sample, in input order.

    They are smoothed exactly when `rng` is given, as in `p_values`.
    """
    tests.require("scores", why="test samples need scores")
    return p_values(table, tests.scores[:, 0], tests.scores[:, 1], rng=rng)

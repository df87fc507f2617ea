"""Inductive calibration: data splitting, per-class score tables, p-values, regions.

The p-value of a label hypothesis is rank-based: the fraction of calibration
scores (of the matching class when Mondrian, pooled otherwise) that conform
no better than the test sample, counting the test sample itself.  Ties are
counted inclusively, which keeps the engine deterministic; smoothed p-values
that randomize over ties are available behind an explicit generator.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .core import (
    Dataset,
    Label,
    PredictionRegion,
    ScorePair,
    SignificanceLevel,
)


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
    proper_idx: list[int] = []
    if config.stratified:
        for label in (Label.NEGATIVE, Label.POSITIVE):
            class_idx = [i for i, s in enumerate(data) if s.true_label is label]
            if not class_idx:
                raise ValueError(f"cannot stratify: no {label} samples")
            perm = rng.permutation(len(class_idx))
            take = _proper_count(len(class_idx), config.proper_fraction)
            proper_idx.extend(class_idx[j] for j in perm[:take])
    else:
        perm = rng.permutation(n)
        take = _proper_count(n, config.proper_fraction)
        proper_idx.extend(int(j) for j in perm[:take])

    chosen = set(proper_idx)
    if not chosen:
        # Calibration holds everything; promote one sample into proper.
        spare = [i for i in range(n) if i not in chosen]
        chosen.add(spare[0])
    elif len(chosen) == n:
        chosen.remove(sorted(chosen)[-1])

    proper = Dataset(
        tuple(data[i] for i in range(n) if i in chosen), data.feature_dim
    )
    calibration = Dataset(
        tuple(data[i] for i in range(n) if i not in chosen), data.feature_dim
    )
    return proper, calibration


@dataclass(frozen=True)
class CalibrationTable:
    """Sorted conformity scores per hypothesized class.

    Mondrian tables keep the two true classes apart; pooled tables use one
    merged list (each sample scored under its own true label) for both sides.
    """

    pos_scores: np.ndarray
    neg_scores: np.ndarray
    mondrian: bool = True

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

    @property
    def n_pos(self) -> int:
        return int(self.pos_scores.size)

    @property
    def n_neg(self) -> int:
        return int(self.neg_scores.size)


def build_calibration_table(
    calibration: Dataset, mondrian: bool = True
) -> CalibrationTable:
    """Collect calibration scores into the sorted per-class (or pooled) table."""
    missing = [s.id for s in calibration if s.scores is None or s.true_label is None]
    if missing:
        raise ValueError(
            f"calibration samples need scores and labels, missing for {missing[:5]}"
        )
    if len(calibration) == 0:
        raise ValueError("calibration set must not be empty")
    if mondrian:
        pos = sorted(s.scores.s_pos for s in calibration if s.true_label is Label.POSITIVE)
        neg = sorted(s.scores.s_neg for s in calibration if s.true_label is Label.NEGATIVE)
        if not pos or not neg:
            empty = Label.POSITIVE if not pos else Label.NEGATIVE
            raise ValueError(f"calibration has no {empty} samples")
        return CalibrationTable(np.array(pos), np.array(neg), mondrian=True)
    pooled = np.array(sorted(s.scores.for_label(s.true_label) for s in calibration))
    return CalibrationTable(pooled, pooled, mondrian=False)


@dataclass(frozen=True)
class PValuePair:
    """p-values for the two label hypotheses, each in (0, 1]."""

    p_pos: float
    p_neg: float

    def __post_init__(self) -> None:
        for name, p in (("p_pos", self.p_pos), ("p_neg", self.p_neg)):
            if not (0.0 < p <= 1.0):
                raise ValueError(f"{name} must be in (0, 1], got {p}")


def _p_value_columns(
    table: CalibrationTable,
    s_pos: np.ndarray,
    s_neg: np.ndarray,
    smoothed: bool,
    rng: np.random.Generator | None,
) -> tuple[np.ndarray, np.ndarray]:
    """p-value columns (positive, negative) for a batch of test score columns.

    A p-value counts the calibration scores below the test score, plus tau
    times the ties and the test sample itself, over n + 1.  The deterministic
    form takes tau = 1; the smoothed form draws tau in (0, 1] as one (n, 2)
    block: row by row, the positive hypothesis first.
    """
    if np.isnan(s_pos).any() or np.isnan(s_neg).any():
        raise ValueError("test scores must not be NaN")
    if smoothed and rng is None:
        raise ValueError("smoothed p-values need an rng")
    shape = (s_pos.size, 2)
    tau = 1.0 - rng.random(shape) if smoothed else np.ones(shape)
    columns = []
    for side, (calibration_scores, scores) in enumerate(
        ((table.pos_scores, s_pos), (table.neg_scores, s_neg))
    ):
        below = np.searchsorted(calibration_scores, scores, side="left")
        tied = np.searchsorted(calibration_scores, scores, side="right") - below
        n = calibration_scores.size
        columns.append((below + tau[:, side] * (tied + 1)) / (n + 1))
    return columns[0], columns[1]


def p_values(
    table: CalibrationTable,
    scores: ScorePair,
    *,
    smoothed: bool = False,
    rng: np.random.Generator | None = None,
) -> PValuePair:
    """Rank one test score pair within the calibration table, one p per hypothesis.

    A batch of one: the same counts and draws as one row of `predict_set`;
    the smoothed form needs `rng` and the positive hypothesis draws first.
    """
    p_pos, p_neg = _p_value_columns(
        table, np.array([scores.s_pos]), np.array([scores.s_neg]), smoothed, rng
    )
    return PValuePair(float(p_pos[0]), float(p_neg[0]))


def region(p: PValuePair, eps: SignificanceLevel) -> PredictionRegion:
    """Keep every label whose p-value strictly exceeds epsilon."""
    return PredictionRegion.from_membership(
        p.p_pos > eps.epsilon, p.p_neg > eps.epsilon
    )


@dataclass(frozen=True)
class Prediction:
    """Per-sample outcome: the p-value pair and the region it induces."""

    sample_id: str
    p: PValuePair
    region: PredictionRegion


def predict_set(
    table: CalibrationTable,
    tests: Dataset,
    eps: SignificanceLevel,
    *,
    smoothed: bool = False,
    rng: np.random.Generator | None = None,
) -> list[Prediction]:
    """Predict a region for every test sample, preserving input order."""
    missing = [s.id for s in tests if s.scores is None]
    if missing:
        raise ValueError(f"test samples need scores, missing for {missing[:5]}")
    s_pos = np.array([s.scores.s_pos for s in tests], dtype=float)
    s_neg = np.array([s.scores.s_neg for s in tests], dtype=float)
    p_pos, p_neg = _p_value_columns(table, s_pos, s_neg, smoothed, rng)
    return [
        Prediction(sample.id, p, region(p, eps))
        for sample, p in zip(
            tests, map(PValuePair, p_pos.tolist(), p_neg.tolist())
        )
    ]

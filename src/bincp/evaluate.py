"""Quality measures for set-valued predictions and their underlying scores.

Validity is the fraction of regions that contain the true label, so a
two-label region always counts as covered and an empty region never does.
Efficiency is the fraction of single-label regions, the predictions that are
actually informative.  The two deliberately pull apart: predicting both
labels everywhere is 100% valid and 0% efficient.  The region distribution
and the two scored-accuracy conventions make that tension explicit, and the
singleton-conditional block reports how good the informative subset really is.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import NamedTuple

import numpy as np

from .core import REGION_BOTH, REGIONS, Dataset, SignificanceLevel

SCORED_ACCURACY_MODES = ("both_correct", "both_wrong")


def _check_paired(name_a: str, a: np.ndarray, name_b: str, b: np.ndarray) -> None:
    if len(a) == 0:
        raise ValueError(f"{name_a} must not be empty")
    if len(a) != len(b):
        raise ValueError(
            f"{name_a} and {name_b} must have equal length, got {len(a)} and {len(b)}"
        )


def _region_columns(regions, positive) -> tuple[np.ndarray, np.ndarray]:
    """Region codes (see `core.REGIONS`) and the positive mask, as checked arrays."""
    regions, positive = np.asarray(regions, dtype=np.intp), np.asarray(positive, dtype=bool)
    _check_paired("regions", regions, "positive", positive)
    if not (0 <= regions.min() and regions.max() < len(REGIONS)):
        raise ValueError(f"region codes must be in [0, {len(REGIONS)})")
    return regions, positive


def _forced_choice(
    tp: int, fn: int, fp: int, tn: int
) -> tuple[float, float | None, float | None]:
    """Accuracy, sensitivity and specificity; a rate with no denominator is None."""
    return (
        (tp + tn) / (tp + fn + fp + tn),
        tp / (tp + fn) if tp + fn else None,
        tn / (tn + fp) if tn + fp else None,
    )


@dataclass(frozen=True)
class RegionDistribution:
    """How the four region kinds divide the test set.

    frac_correct_single + frac_both is the validity; frac_correct_single +
    frac_false_single is the efficiency.
    """

    frac_correct_single: float
    frac_false_single: float
    frac_both: float
    frac_empty: float

    def __post_init__(self) -> None:
        total = 0.0
        for name in (
            "frac_correct_single",
            "frac_false_single",
            "frac_both",
            "frac_empty",
        ):
            value = getattr(self, name)
            if not (0.0 <= value <= 1.0):
                raise ValueError(f"{name} must be in [0, 1], got {value}")
            total += value
        if abs(total - 1.0) > 1e-12:
            raise ValueError(f"fractions must sum to 1, got {total}")

    @property
    def validity(self) -> float:
        return self.frac_both + self.frac_correct_single

    @property
    def efficiency(self) -> float:
        return self.frac_correct_single + self.frac_false_single


class _RegionCounts(NamedTuple):
    """The region-count table of a test set: true class by region kind.

    tp and fn count the positive rows given a positive or a negative
    singleton, fp and tn the negative rows; both and empty count all rows.
    Each region metric is a sum of these ints over their total, one rounding
    from the exact ratio, so the identities between the metrics hold exactly.
    """

    tp: int
    fn: int
    fp: int
    tn: int
    both: int
    empty: int

    @classmethod
    def of(cls, regions: np.ndarray, positive: np.ndarray) -> "_RegionCounts":
        cells = np.where(positive, 0, len(REGIONS)) + regions
        counts = np.bincount(cells, minlength=2 * len(REGIONS)).reshape(2, -1)
        (tp, fn, pos_both, pos_empty), (fp, tn, neg_both, neg_empty) = counts.tolist()
        return cls(tp, fn, fp, tn, pos_both + neg_both, pos_empty + neg_empty)

    @property
    def n(self) -> int:
        return sum(self)

    @property
    def validity(self) -> float:
        return (self.tp + self.tn + self.both) / self.n

    @property
    def efficiency(self) -> float:
        return (self.tp + self.tn + self.fn + self.fp) / self.n

    def distribution(self) -> RegionDistribution:
        correct, false, n = self.tp + self.tn, self.fn + self.fp, self.n
        return RegionDistribution(correct / n, false / n, self.both / n, self.empty / n)

    def scored_accuracy(self, mode: str) -> float:
        if mode == "both_wrong":
            return (self.tp + self.tn) / self.n
        return self.validity


def validity(regions, positive) -> float:
    """Fraction of regions containing the true label."""
    return _RegionCounts.of(*_region_columns(regions, positive)).validity


def efficiency(regions) -> float:
    """Fraction of single-label regions."""
    # Efficiency ignores the truth, so every row may count as positive.
    regions, positive = _region_columns(regions, np.ones(len(regions), dtype=bool))
    return _RegionCounts.of(regions, positive).efficiency


def region_distribution(regions, positive) -> RegionDistribution:
    """Split the predictions into correct singles, wrong singles, both, empty."""
    return _RegionCounts.of(*_region_columns(regions, positive)).distribution()


def scored_accuracy(mode: str, regions, positive) -> float:
    """Single-number accuracy under an explicit convention for two-label regions.

    "both_correct" credits a two-label region as a hit (it does contain the
    truth), "both_wrong" counts only correct singletons.  Empty regions are
    wrong either way.  The gap between the two conventions is exactly the
    fraction of two-label regions, which is why reporting one number without
    naming the convention is misleading.
    """
    if mode not in SCORED_ACCURACY_MODES:
        raise ValueError(
            f"mode must be one of {SCORED_ACCURACY_MODES}, got {mode!r}"
        )
    return _RegionCounts.of(*_region_columns(regions, positive)).scored_accuracy(mode)


@dataclass(frozen=True)
class BinaryMetrics:
    """Plain thresholded rates; sensitivity/specificity are None when undefined."""

    accuracy: float
    sensitivity: float | None
    specificity: float | None


def _check_threshold(threshold: float) -> None:
    if not (math.isfinite(threshold) and 0.0 <= threshold <= 1.0):
        raise ValueError(f"threshold must be in [0, 1], got {threshold}")


def _threshold_confusion(
    s_pos: np.ndarray, positive: np.ndarray, threshold: float
) -> tuple[int, int, int, int]:
    """(tp, fn, fp, tn) of calling positive every s_pos >= threshold."""
    cells = np.where(positive, 0, 2) + (s_pos < threshold)
    tp, fn, fp, tn = np.bincount(cells, minlength=4).tolist()
    return tp, fn, fp, tn


def binary_metrics(s_pos, positive, threshold: float = 0.5) -> BinaryMetrics:
    """Threshold probability scores into forced-choice predictions and score them.

    A sample is called positive when s_pos >= threshold (ties go positive).
    Sensitivity is TP / (TP + FN), specificity TN / (TN + FP); a missing
    class leaves the corresponding rate undefined.
    """
    s_pos, positive = np.asarray(s_pos, dtype=float), np.asarray(positive, dtype=bool)
    _check_paired("s_pos", s_pos, "positive", positive)
    if not ((s_pos >= 0.0) & (s_pos <= 1.0)).all():
        raise ValueError("binary metrics need probability scores in [0, 1]")
    _check_threshold(threshold)
    return BinaryMetrics(*_forced_choice(*_threshold_confusion(s_pos, positive, threshold)))


def _auroc(s_pos: np.ndarray, positive: np.ndarray) -> float:
    """Win fraction of the positive scores over the negative ones, ties half.

    Only the sums of the rank counts matter, so both classes are sorted and
    the positive scores are counted against the negative ones in order.
    """
    neg = np.sort(s_pos[~positive])
    pos = np.sort(s_pos[positive])
    if pos.size == 0 or neg.size == 0:
        raise ValueError("AUROC needs at least one sample of each class")
    below = np.searchsorted(neg, pos, side="left")
    at_most = np.searchsorted(neg, pos, side="right")
    wins = int(below.sum())
    ties = int((at_most - below).sum())
    return (wins + 0.5 * ties) / (pos.size * neg.size)


def auroc(s_pos, positive) -> float:
    """Rank-based area under the ROC curve on s_pos.

    Equals the win fraction over all positive/negative pairs with ties worth
    half, so all-tied scores give exactly 0.5 and no curve interpolation is
    involved.
    """
    s_pos, positive = np.asarray(s_pos, dtype=float), np.asarray(positive, dtype=bool)
    _check_paired("s_pos", s_pos, "positive", positive)
    return _auroc(s_pos, positive)


@dataclass(frozen=True)
class CalibrationReport:
    """Scoring-quality summary of a calibration set: AUROC, accuracy, size."""

    auroc: float
    accuracy: float
    n: int


def calibration_report(calibration: Dataset, threshold: float = 0.5) -> CalibrationReport:
    """Report how well the ingested probabilities separate the calibration classes.

    This is the health check that tells a reader whether downstream regions
    are built on an informative score or on noise.
    """
    missing = calibration.missing("scores", "labels")
    if missing:
        raise ValueError(
            f"calibration samples need scores and labels, missing for {missing}"
        )
    if len(calibration) == 0:
        raise ValueError("calibration set must not be empty")
    s_pos, positive = calibration.scores[:, 0], calibration.positive
    rates = binary_metrics(s_pos, positive, threshold)
    return CalibrationReport(auroc(s_pos, positive), rates.accuracy, len(calibration))


@dataclass(frozen=True)
class ConditionalSingletonMetrics:
    """Forced-choice quality restricted to the single-label predictions.

    Rates are None whenever their denominator is empty on the restricted set;
    the counts are always present.
    """

    accuracy: float | None
    sensitivity: float | None
    specificity: float | None
    auroc: float | None
    n_singleton: int
    false_positives_in_singletons: int


def _singleton_metrics(
    counts: _RegionCounts, regions: np.ndarray, s_pos: np.ndarray, positive: np.ndarray
) -> ConditionalSingletonMetrics:
    tp, fn, fp, tn = counts[:4]
    n_singleton = tp + fn + fp + tn
    if not n_singleton:
        return ConditionalSingletonMetrics(None, None, None, None, 0, 0)
    single = regions < REGION_BOTH
    area = _auroc(s_pos[single], positive[single]) if tp + fn and fp + tn else None
    return ConditionalSingletonMetrics(
        *_forced_choice(tp, fn, fp, tn), area, n_singleton, fp
    )


def conditional_singleton_metrics(regions, s_pos, positive) -> ConditionalSingletonMetrics:
    """Evaluate only the samples that received a single-label region.

    The singleton itself is the forced-choice prediction, so this answers
    "when the predictor commits, how often is it right", which is the
    fair companion number to overall validity.
    """
    regions, positive = _region_columns(regions, positive)
    s_pos = np.asarray(s_pos, dtype=float)
    _check_paired("regions", regions, "s_pos", s_pos)
    return _singleton_metrics(_RegionCounts.of(regions, positive), regions, s_pos, positive)


@dataclass(frozen=True)
class MetricPanel:
    """Forced-choice block of a report; entries are None when not computable."""

    accuracy: float | None
    sensitivity: float | None
    specificity: float | None
    auroc: float | None


def _metric_panel(
    s_pos: np.ndarray, positive: np.ndarray, probability: bool, threshold: float
) -> MetricPanel:
    area = _auroc(s_pos, positive) if positive.any() and not positive.all() else None
    if not probability:
        return MetricPanel(None, None, None, area)
    _check_threshold(threshold)
    return MetricPanel(
        *_forced_choice(*_threshold_confusion(s_pos, positive, threshold)), area
    )


@dataclass(frozen=True)
class EvaluationReport:
    """All test-set metrics for one significance level."""

    epsilon: float
    n: int
    validity: float
    efficiency: float
    distribution: RegionDistribution
    scored_accuracy_both_correct: float
    scored_accuracy_both_wrong: float
    binary: MetricPanel
    singleton_conditional: ConditionalSingletonMetrics

    @property
    def confidence_percent(self) -> float:
        return SignificanceLevel(self.epsilon).confidence_percent


def evaluate_predictions(
    regions,
    s_pos,
    positive,
    threshold: float = 0.5,
    epsilon: float = 0.0,
    *,
    probability: bool,
) -> EvaluationReport:
    """Every metric this module defines for one significance level.

    Takes the region codes, the s_pos scores and the mask of positive rows
    of a test set; `probability` says whether the scores are probabilities,
    which the thresholded rates need.  The region metrics all read one
    region-count table, so validity equals the both_correct accuracy and
    the correct-single fraction the both_wrong one, bit for bit.
    """
    regions, positive = _region_columns(regions, positive)
    s_pos = np.asarray(s_pos, dtype=float)
    _check_paired("regions", regions, "s_pos", s_pos)
    counts = _RegionCounts.of(regions, positive)
    return EvaluationReport(
        epsilon=epsilon,
        n=len(regions),
        validity=counts.validity,
        efficiency=counts.efficiency,
        distribution=counts.distribution(),
        scored_accuracy_both_correct=counts.scored_accuracy("both_correct"),
        scored_accuracy_both_wrong=counts.scored_accuracy("both_wrong"),
        binary=_metric_panel(s_pos, positive, probability, threshold),
        singleton_conditional=_singleton_metrics(counts, regions, s_pos, positive),
    )

"""Quality measures for set-valued predictions and their underlying scores.

Validity is the fraction of regions that contain the true label, so a
two-label region always counts as covered and an empty region never does.
Efficiency is the fraction of single-label regions, the predictions that are
actually informative.  The two deliberately pull apart: predicting both
labels everywhere is 100% valid and 0% efficient.  The region distribution
and the two scored-accuracy conventions make that tension explicit, and the
singleton-conditional block reports how good the informative subset really is.

`evaluate_predictions`, `binary_report` and `calibration_report` return the
report's own blocks: dicts keyed as the report writes them, so each figure
is named once, here.  Every region figure reads one class-by-region count
table (`_region_figures`), and which of its cells count as covered is
`core.COVERAGE`, the rule the on-line loop counts its errors by too.  One
confusion table (`_panel`) makes all three forced-choice blocks: the
threshold call on the calibration rows and on the test rows, and the call
the singletons make.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .core import COVERAGE, NEGATIVE, POSITIVE, REGION_BOTH, REGIONS, Dataset, PredictionRegion
from .icp import _check_scored

SCORED_ACCURACY_MODES = ("both_correct", "both_wrong")
# The four ways a region can meet the truth; `RegionDistribution` holds the
# fraction of each as `frac_<kind>`.
REGION_KINDS = ("correct_single", "false_single", "both", "empty")

_SINGLE_POSITIVE = REGIONS.index(PredictionRegion.SINGLE_POSITIVE)


def _check_paired(name_a: str, a: np.ndarray, name_b: str, b: np.ndarray) -> None:
    if len(a) != len(b):
        raise ValueError(
            f"{name_a} and {name_b} must have equal length, got {len(a)} and {len(b)}"
        )


def _region_codes(regions) -> np.ndarray:
    """Region codes (see `core.REGIONS`) as a checked, nonempty array."""
    regions = np.asarray(regions, dtype=np.intp)
    if len(regions) == 0:
        raise ValueError("regions must not be empty")
    if not (0 <= regions.min() and regions.max() < len(REGIONS)):
        raise ValueError(f"region codes must be in [0, {len(REGIONS)})")
    return regions


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
        for kind in REGION_KINDS:
            name = "frac_" + kind
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


def _region_figures(regions, positive) -> dict:
    """Every region figure of a test set, keyed as in the report.

    They all read one class-by-region count table, `counts[label code, region
    code]`, whose covered cells are those `core.COVERAGE` marks.  Each figure
    is a sum of its ints over n, divided once, so the identities between the
    figures hold exactly: validity equals the both_correct accuracy and the
    correct-single fraction the both_wrong one, bit for bit.
    """
    regions, positive = _region_codes(regions), np.asarray(positive, dtype=bool)
    _check_paired("regions", regions, "positive", positive)
    cells = np.where(positive, POSITIVE, NEGATIVE) * len(REGIONS) + regions
    counts = np.bincount(cells, minlength=COVERAGE.size).reshape(COVERAGE.shape)
    single = np.arange(len(REGIONS)) < REGION_BOTH
    covered, correct, wrong = (
        int(counts[mask].sum()) for mask in (COVERAGE, COVERAGE & single, ~COVERAGE & single)
    )
    # The codes after the singletons are both and empty.
    both, empty = counts[:, REGION_BOTH:].sum(axis=0).tolist()
    n, n_single = correct + wrong + both + empty, correct + wrong
    return {
        "n": n,
        "validity": covered / n,
        "efficiency": n_single / n,
        "distribution": dict(zip(REGION_KINDS, (correct / n, wrong / n, both / n, empty / n))),
        "scored_accuracy": dict(zip(SCORED_ACCURACY_MODES, (covered / n, correct / n))),
        "singleton_conditional": {
            "n_singleton": n_single,
            "false_positives_in_singletons": int(counts[NEGATIVE, _SINGLE_POSITIVE]),
        },
    }


def validity(regions, positive) -> float:
    """Fraction of regions containing the true label."""
    return _region_figures(regions, positive)["validity"]


def efficiency(regions) -> float:
    """Fraction of single-label regions; it needs no truth."""
    regions = _region_codes(regions)
    return np.count_nonzero(regions < REGION_BOTH) / len(regions)


def region_distribution(regions, positive) -> RegionDistribution:
    """Split the predictions into correct singles, wrong singles, both, empty."""
    fractions = _region_figures(regions, positive)["distribution"]
    return RegionDistribution(*(fractions[kind] for kind in REGION_KINDS))


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
    return _region_figures(regions, positive)["scored_accuracy"][mode]


def _check_threshold(threshold: float) -> None:
    if not (math.isfinite(threshold) and 0.0 <= threshold <= 1.0):
        raise ValueError(f"threshold must be in [0, 1], got {threshold}")


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
    if len(s_pos) == 0:
        raise ValueError("s_pos must not be empty")
    _check_paired("s_pos", s_pos, "positive", positive)
    return _auroc(s_pos, positive)


def _panel(calls: np.ndarray, s_pos: np.ndarray, positive: np.ndarray) -> dict:
    """The forced-choice block of calling positive the rows where `calls` is set.

    The four figures read one confusion table; a rate is None when its
    denominator is empty, and AUROC, which ranks s_pos, needs both classes.
    """
    cells = np.where(positive, 0, 2) + ~calls
    tp, fn, fp, tn = np.bincount(cells, minlength=4).tolist()
    n = tp + fn + fp + tn
    return {
        "accuracy": (tp + tn) / n if n else None,
        "sensitivity": tp / (tp + fn) if tp + fn else None,
        "specificity": tn / (tn + fp) if tn + fp else None,
        "auroc": _auroc(s_pos, positive) if tp + fn and fp + tn else None,
    }


def binary_report(test: Dataset, threshold: float = 0.5) -> dict:
    """The `binary` block: calls positive every row whose s_pos >= threshold.

    It does not depend on epsilon, so a run computes it once for its test
    set.  Scores that are not probabilities have no threshold to call at:
    their three rates are None and only AUROC, which ranks any scores, is
    given.
    """
    _check_scored(test, "test")
    _check_threshold(threshold)
    s_pos, positive = test.scores[:, 0], test.positive
    block = _panel(s_pos >= threshold, s_pos, positive)
    if not test.probability:
        block.update(accuracy=None, sensitivity=None, specificity=None)
    return block


def calibration_report(calibration: Dataset, threshold: float = 0.5) -> dict:
    """The calibration block: how well the ingested probabilities separate the classes.

    This is the health check that tells a reader whether downstream regions
    are built on an informative score or on noise.  Accuracy and AUROC come
    from the `binary` block of the calibration rows, so AUROC is None when a
    class is absent; scores that are not probabilities report only the size.
    """
    _check_scored(calibration, "calibration")
    block = {"accuracy": None, "auroc": None, "n": len(calibration)}
    if calibration.probability:
        panel = binary_report(calibration, threshold)
        block.update(accuracy=panel["accuracy"], auroc=panel["auroc"])
    return block


def evaluate_predictions(regions, s_pos, positive) -> dict:
    """The blocks of one result that depend on epsilon, keyed as in the report.

    Takes the region codes, the s_pos scores and the mask of positive rows
    of a test set.  The region figures come from `_region_figures`, so
    validity equals the both_correct accuracy and the correct-single
    fraction the both_wrong one, bit for bit.  The singleton block is the
    forced choice the singletons make, on those rows alone: "when the
    predictor commits, how often is it right".
    """
    blocks = _region_figures(regions, positive)  # checks the codes and their pairing
    regions, positive = np.asarray(regions, dtype=np.intp), np.asarray(positive, dtype=bool)
    s_pos = np.asarray(s_pos, dtype=float)
    _check_paired("regions", regions, "s_pos", s_pos)
    single = regions < REGION_BOTH
    singleton = _panel(regions[single] == _SINGLE_POSITIVE, s_pos[single], positive[single])
    blocks["singleton_conditional"] = {**singleton, **blocks["singleton_conditional"]}
    return blocks

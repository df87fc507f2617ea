"""Shared domain types for set-valued binary classification.

A dataset is a set of columns, and `Dataset` is the one place that knows
their layout and checks them: ids, an int8 label column (`POSITIVE`,
`NEGATIVE`, or `UNKNOWN` for a missing label), features as an (n, m) float
array within the feature bound that bags and candidates meet too
(`_point_checks`) and scores as an (n, 2) float array, either absent for
every row, and one `probability` flag for the whole dataset.  Scores are
conformity scores, higher meaning more conforming, and never NaN;
probability scores are class probabilities in [0, 1] that sum to 1, while
generic ones may be infinite.  `Dataset.from_columns` is the one way to
hold scores; `Sample` rows remain only for the benchmark's input
preparation.
"""

from __future__ import annotations

import functools
import math
from dataclasses import dataclass
from enum import Enum
from typing import Callable, Iterable

import numpy as np

PROBABILITY_SUM_TOL = 1e-9

# Decimal places kept when converting between epsilon and confidence percent;
# guarantees exact round-trips for values with up to four decimal digits.
_ROUND_DIGITS = 12

# Codes of the label column.
UNKNOWN, NEGATIVE, POSITIVE = -1, 0, 1


class Label(Enum):
    """One of the two class labels."""

    POSITIVE = "positive"
    NEGATIVE = "negative"

    def __str__(self) -> str:
        return self.value


# Each label at the index of its code, the one mapping between labels and codes.
_LABELS = (Label.NEGATIVE, Label.POSITIVE)


def _check_label(label) -> Label:
    """`label` itself; anything but a `Label` member, such as its text, is an error."""
    if not isinstance(label, Label):
        raise ValueError(f"label must be a Label member, got {label!r}")
    return label


def label_names(labels: np.ndarray) -> list[str]:
    """The file text of each label code: a class name, or '' when unknown."""
    return np.array([*map(str, _LABELS), ""])[labels].tolist()


@functools.cache
def _feature_limit(dim: int) -> float:
    """The largest |feature| that rows of `dim` features may hold.

    With every feature within B, so is every mean of rows, so a centred
    coordinate lies within 2B and a squared norm or squared distance within
    4 d B^2.  The k-nearest kernel's proof adds two of those (|last| +
    |kth|, scaled back from its float32 product), up to 8 d B^2, and then
    its rounding slack.  B = sqrt(max / (16 d)), with max the largest
    float (`np.finfo(float).max`), keeps those sums within max / 2, so no
    square and no sum of the kernel overflows.
    """
    return math.sqrt(float(np.finfo(float).max) / (16 * max(dim, 1)))


class RowError(ValueError):
    """A column check failed at row `row` (zero-based).

    `first` is the earlier row that a duplicate id repeats.
    """

    def __init__(self, message: str, row: int, first: int | None = None):
        super().__init__(message)
        self.row = row
        self.first = first


def _check_rows(checks: list[tuple[np.ndarray, Callable[[int], str]]]) -> None:
    """Raise for the first row failing any check, naming the first check it fails.

    Each check is a mask of failing rows and the message for a row.
    """
    failing = [
        (int(np.argmax(bad)), order) for order, (bad, _) in enumerate(checks) if bad.any()
    ]
    if failing:
        row, order = min(failing)
        raise RowError(checks[order][1](row), row)


def _score_checks(scores: np.ndarray, probability: bool) -> list:
    s_pos, s_neg = scores[:, 0], scores[:, 1]
    checks = [(np.isnan(scores).any(axis=1), lambda row: "scores must not be NaN")]
    if probability:
        with np.errstate(invalid="ignore"):  # inf + -inf fails the finite check
            total = s_pos + s_neg
        checks += [
            (
                ~np.isfinite(scores).all(axis=1),
                lambda row: "probability scores must be finite",
            ),
            (
                ((scores < 0.0) | (scores > 1.0)).any(axis=1),
                lambda row: "probability scores must be in [0, 1], got "
                f"({s_pos[row].item()}, {s_neg[row].item()})",
            ),
            (
                np.abs(total - 1.0) > PROBABILITY_SUM_TOL,
                lambda row: "probability scores must sum to 1, got "
                f"{s_pos[row].item()} + {s_neg[row].item()} = {total[row].item()}",
            ),
        ]
    return checks


def _point_checks(points: np.ndarray, name: Callable[[int], str]) -> list:
    """The feature bound as row checks, a row along the last axis: finite,
    and within `_feature_limit` of the row's length.  `name(row)` names it."""
    limit = _feature_limit(points.shape[-1])
    return [
        (~np.isfinite(points).all(axis=-1), lambda row: f"{name(row)} has non-finite features"),
        (
            (np.abs(points) > limit).any(axis=-1),
            lambda row: f"{name(row)} has features beyond ±{limit:.4g}, "
            "whose squared distances overflow",
        ),
    ]


def _check_points(points: np.ndarray, name: Callable[[int], str]) -> None:
    """Raise `RowError` for the first row outside the bound of `_point_checks`."""
    # One pass clears points within the bound; a NaN fails it as well.
    if not np.abs(points).max(initial=0.0) <= _feature_limit(points.shape[-1]):
        _check_rows(_point_checks(points, name))


def _frozen(values, dtype) -> np.ndarray:
    array = np.array(values, dtype=dtype, order="C")
    array.flags.writeable = False
    return array


@dataclass(frozen=True)
class Sample:
    """One unchecked row of a feature dataset; `Dataset(samples)` checks the rows."""

    id: str
    features: tuple[float, ...] | None = None
    true_label: Label | None = None


class Dataset:
    """Rows held as columns, stored read-only; `Dataset(samples, feature_dim)`
    and `samples` convert from and to `Sample` rows."""

    ids: np.ndarray
    labels: np.ndarray
    features: np.ndarray | None
    scores: np.ndarray | None
    probability: bool

    def __init__(self, samples: Iterable[Sample] = (), feature_dim: int | None = None):
        rows = tuple(samples)
        dims = {None if s.features is None else len(s.features) for s in rows}
        if len(dims) > 1 or dims and feature_dim not in (None, *dims):
            raise ValueError(
                f"inconsistent feature dimensions: {dims}, feature_dim {feature_dim}"
            )
        self._set_columns(
            [s.id for s in rows],
            [UNKNOWN if s.true_label is None else _LABELS.index(_check_label(s.true_label))
             for s in rows],
            None if dims <= {None} else [s.features for s in rows],
            None,
            False,
        )

    @classmethod
    def from_columns(cls, ids, labels, features=None, scores=None, probability=False):
        """A dataset of the given columns, checked; `features`/`scores` may be None."""
        data = cls.__new__(cls)
        data._set_columns(ids, labels, features, scores, probability)
        return data

    def _set_columns(self, ids, labels, features, scores, probability) -> None:
        self.ids = _frozen(ids, object)
        self.labels = _frozen(labels, np.int8)
        self.features = None if features is None else _frozen(features, float)
        self.scores = None if scores is None else _frozen(scores, float)
        self.probability = bool(probability)
        n = self.ids.size
        if self.ids.shape != (n,) or self.labels.shape != (n,):
            raise ValueError("ids and labels must be 1-d columns of one length")
        if ((self.labels < UNKNOWN) | (self.labels > POSITIVE)).any():
            raise ValueError("label codes must be -1, 0 or 1")
        if self.features is not None and (
            self.features.ndim != 2 or len(self.features) != n
        ):
            raise ValueError(f"features must be an ({n}, m) array")
        if self.scores is not None and self.scores.shape != (n, 2):
            raise ValueError(f"scores must be an ({n}, 2) array")
        if n and self.features is None and self.scores is None:
            raise ValueError("samples need features or scores")
        checks = [] if self.scores is None else _score_checks(self.scores, self.probability)
        checks.append((self.ids == "", lambda row: "sample id must be nonempty"))
        if self.features is not None:
            checks += _point_checks(self.features, lambda row: f"sample {self.ids[row]!r}")
        _check_rows(checks)
        # Hashing finds a repeat without the sort; the sort only names it.
        if len(set(self.ids)) < n:
            unique, first = np.unique(self.ids, return_index=True)
            repeats = np.ones(n, dtype=bool)
            repeats[first] = False
            row = int(np.argmax(repeats))
            raise RowError(
                f"duplicate sample id {self.ids[row]!r}",
                row,
                int(first[np.searchsorted(unique, self.ids[row])]),
            )

    def take(self, rows) -> "Dataset":
        """The dataset of the rows an index array, slice or mask selects."""
        features, scores = (
            None if column is None else column[rows] for column in (self.features, self.scores)
        )
        return Dataset.from_columns(
            self.ids[rows], self.labels[rows], features, scores, self.probability
        )

    def with_scores(self, scores: np.ndarray, probability: bool) -> "Dataset":
        """The same rows carrying the given (n, 2) score column."""
        return Dataset.from_columns(self.ids, self.labels, self.features, scores, probability)

    def require(self, *columns: str, why: str) -> None:
        """Raise `ValueError` as "`why`, missing for [ids]" if a row lacks a
        named column, naming up to five such rows.

        Names are "features", "scores" and "labels" (a label is missing
        where it is unknown).
        """
        lacking = np.zeros(len(self), dtype=bool)
        for name in columns:
            if name == "labels":
                lacking |= self.labels == UNKNOWN
            elif getattr(self, name) is None:
                lacking[:] = True
        if lacking.any():
            raise ValueError(f"{why}, missing for {self.ids[lacking][:5].tolist()}")

    @property
    def positive(self) -> np.ndarray:
        """Mask of the rows labelled positive."""
        return self.labels == POSITIVE

    @property
    def feature_dim(self) -> int | None:
        return None if self.features is None else int(self.features.shape[1])

    @functools.cached_property
    def samples(self) -> tuple[Sample, ...]:
        """The rows as `Sample`s, built from the checked columns."""
        n = len(self)
        features = [None] * n if self.features is None else map(tuple, self.features.tolist())
        labels = [(*_LABELS, None)[c] for c in self.labels.tolist()]
        return tuple(map(Sample, self.ids.tolist(), features, labels))

    def __len__(self) -> int:
        return int(self.ids.size)

    def fully_labelled(self) -> bool:
        return not (self.labels == UNKNOWN).any()


@dataclass(frozen=True)
class SignificanceLevel:
    """Significance epsilon in [0, 1]; the complement of the confidence percent."""

    epsilon: float

    def __post_init__(self) -> None:
        if not (math.isfinite(self.epsilon) and 0.0 <= self.epsilon <= 1.0):
            raise ValueError(f"epsilon must be in [0, 1], got {self.epsilon}")

    @classmethod
    def from_confidence(cls, confidence_percent: float) -> "SignificanceLevel":
        if not (
            math.isfinite(confidence_percent) and 0.0 <= confidence_percent <= 100.0
        ):
            raise ValueError(
                f"confidence percent must be in [0, 100], got {confidence_percent}"
            )
        return cls(round(1.0 - confidence_percent / 100.0, _ROUND_DIGITS))

    @property
    def confidence_percent(self) -> float:
        return round(100.0 * (1.0 - self.epsilon), _ROUND_DIGITS)


class PredictionRegion(Enum):
    """Set-valued prediction for one sample: a singleton, both labels, or neither."""

    SINGLE_POSITIVE = "positive"
    SINGLE_NEGATIVE = "negative"
    BOTH = "both"
    EMPTY = "empty"

    def contains(self, label: Label) -> bool:
        return bool(COVERAGE[_LABELS.index(_check_label(label)), REGIONS.index(self)])

    @property
    def is_singleton(self) -> bool:
        return REGIONS.index(self) < REGION_BOTH

    def __str__(self) -> str:
        return self.value


# Region codes are indices into REGIONS; the codes below REGION_BOTH are the
# singletons.
REGIONS = (
    PredictionRegion.SINGLE_POSITIVE,
    PredictionRegion.SINGLE_NEGATIVE,
    PredictionRegion.BOTH,
    PredictionRegion.EMPTY,
)
REGION_BOTH = REGIONS.index(PredictionRegion.BOTH)

# Region code by [keeps positive, keeps negative].
_MEMBERSHIP = np.array(
    [
        [REGIONS.index(kind) for kind in row]
        for row in (
            (PredictionRegion.EMPTY, PredictionRegion.SINGLE_NEGATIVE),
            (PredictionRegion.SINGLE_POSITIVE, PredictionRegion.BOTH),
        )
    ],
    dtype=np.int8,
)

# COVERAGE[label code, region code]: whether the region keeps the label, as
# the indices of _MEMBERSHIP[keeps positive, keeps negative] say.  It is the
# one statement of coverage: evaluation, the on-line loop's error count and
# `PredictionRegion.contains` all read it.
COVERAGE = np.empty((2, len(REGIONS)), dtype=bool)
COVERAGE[POSITIVE, _MEMBERSHIP], COVERAGE[NEGATIVE, _MEMBERSHIP] = np.indices((2, 2)) == 1
COVERAGE.flags.writeable = False

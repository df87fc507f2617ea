"""Shared domain types for set-valued binary classification."""

from __future__ import annotations

import math
from dataclasses import dataclass
from enum import Enum
from typing import Iterator, Sequence

PROBABILITY_SUM_TOL = 1e-9

# Decimal places kept when converting between epsilon and confidence percent;
# guarantees exact round-trips for values with up to four decimal digits.
_ROUND_DIGITS = 12

FeatureVector = tuple[float, ...]


class Label(Enum):
    """One of the two class labels."""

    POSITIVE = "positive"
    NEGATIVE = "negative"

    def flipped(self) -> "Label":
        return Label.NEGATIVE if self is Label.POSITIVE else Label.POSITIVE

    def __str__(self) -> str:
        return self.value


@dataclass(frozen=True)
class ScorePair:
    """Conformity scores for the two hypothesized labels of one sample.

    Higher means more conforming.  Pairs tagged ``probability=True`` hold
    class probabilities (for example vote fractions of a tree ensemble) and
    must lie in [0, 1] with s_pos + s_neg = 1.  Untagged pairs are generic
    conformity scores and may be infinite (a maximally nonconforming label
    hypothesis maps to -inf), but never NaN.
    """

    s_pos: float
    s_neg: float
    probability: bool = False

    def __post_init__(self) -> None:
        if math.isnan(self.s_pos) or math.isnan(self.s_neg):
            raise ValueError("scores must not be NaN")
        if self.probability:
            if not (math.isfinite(self.s_pos) and math.isfinite(self.s_neg)):
                raise ValueError("probability scores must be finite")
            if not (0.0 <= self.s_pos <= 1.0 and 0.0 <= self.s_neg <= 1.0):
                raise ValueError(
                    f"probability scores must be in [0, 1], got "
                    f"({self.s_pos}, {self.s_neg})"
                )
            if abs(self.s_pos + self.s_neg - 1.0) > PROBABILITY_SUM_TOL:
                raise ValueError(
                    f"probability scores must sum to 1, got "
                    f"{self.s_pos} + {self.s_neg} = {self.s_pos + self.s_neg}"
                )

    def for_label(self, label: Label) -> float:
        return self.s_pos if label is Label.POSITIVE else self.s_neg

    def swapped(self) -> "ScorePair":
        return ScorePair(self.s_neg, self.s_pos, self.probability)


@dataclass(frozen=True)
class Sample:
    """One data point: features and/or precomputed scores, optional label."""

    id: str
    features: FeatureVector | None = None
    scores: ScorePair | None = None
    true_label: Label | None = None

    def __post_init__(self) -> None:
        if not self.id:
            raise ValueError("sample id must be nonempty")
        if self.features is None and self.scores is None:
            raise ValueError(f"sample {self.id!r} needs features or scores")
        if self.features is not None:
            values = tuple(float(v) for v in self.features)
            if not all(math.isfinite(v) for v in values):
                raise ValueError(f"sample {self.id!r} has non-finite features")
            object.__setattr__(self, "features", values)


@dataclass(frozen=True)
class Dataset:
    """An ordered, id-unique collection of samples with a common feature dimension."""

    samples: tuple[Sample, ...]
    feature_dim: int | None = None

    def __post_init__(self) -> None:
        object.__setattr__(self, "samples", tuple(self.samples))
        seen: set[str] = set()
        for sample in self.samples:
            if sample.id in seen:
                raise ValueError(f"duplicate sample id {sample.id!r}")
            seen.add(sample.id)
        dims = {len(s.features) for s in self.samples if s.features is not None}
        if len(dims) > 1:
            raise ValueError(f"inconsistent feature dimensions: {sorted(dims)}")
        if dims:
            dim = dims.pop()
            if self.feature_dim is None:
                object.__setattr__(self, "feature_dim", dim)
            elif self.feature_dim != dim:
                raise ValueError(
                    f"feature_dim {self.feature_dim} does not match data ({dim})"
                )

    def __len__(self) -> int:
        return len(self.samples)

    def __iter__(self) -> Iterator[Sample]:
        return iter(self.samples)

    def __getitem__(self, index: int) -> Sample:
        return self.samples[index]

    def fully_labelled(self) -> bool:
        return all(s.true_label is not None for s in self.samples)

    def count(self, label: Label) -> int:
        return sum(1 for s in self.samples if s.true_label is label)


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

    @classmethod
    def from_membership(
        cls, include_positive: bool, include_negative: bool
    ) -> "PredictionRegion":
        if include_positive and include_negative:
            return cls.BOTH
        if include_positive:
            return cls.SINGLE_POSITIVE
        if include_negative:
            return cls.SINGLE_NEGATIVE
        return cls.EMPTY

    def contains(self, label: Label) -> bool:
        if self is PredictionRegion.BOTH:
            return True
        if self is PredictionRegion.EMPTY:
            return False
        if self is PredictionRegion.SINGLE_POSITIVE:
            return label is Label.POSITIVE
        return label is Label.NEGATIVE

    @property
    def is_singleton(self) -> bool:
        return self in (PredictionRegion.SINGLE_POSITIVE, PredictionRegion.SINGLE_NEGATIVE)

    @property
    def size(self) -> int:
        if self is PredictionRegion.BOTH:
            return 2
        return 1 if self.is_singleton else 0

    def __str__(self) -> str:
        return self.value

"""CSV ingestion and emission, bundled fixtures, and the synthetic generator.

File contract: UTF-8, comma separated, dot decimals, header required.
Columns are `id,label[,x1..xm][,s_pos,s_neg]`; score columns carry class
probabilities (s_pos belongs to whichever class the caller names positive).
An empty label field means the label is unknown.
"""

from __future__ import annotations

import csv
import importlib.resources
import math
from dataclasses import dataclass
from pathlib import Path
from typing import Sequence

import numpy as np

from .core import Dataset, Label, Sample, ScorePair

SCHEMAS = ("auto", "features", "scores", "both")


class DataFormatError(ValueError):
    """A file violated the dataset CSV contract."""


def figure1_path() -> Path:
    """The bundled 21-sample example calibration set (classes A and B, scores)."""
    return Path(str(importlib.resources.files("bincp").joinpath("data/figure1.csv")))


def demo_test_path() -> Path:
    """A 3-row scored test fixture that pairs with the figure1 calibration set."""
    return Path(str(importlib.resources.files("bincp").joinpath("data/demo_test.csv")))


def _parse_header(columns: list[str], path: Path) -> tuple[int, bool]:
    """Validate the header and return (feature count, has score columns)."""
    if len(columns) < 2 or columns[0] != "id" or columns[1] != "label":
        raise DataFormatError(
            f"{path}: header must start with 'id,label', got {columns[:2]}"
        )
    rest = columns[2:]
    has_scores = len(rest) >= 2 and rest[-2:] == ["s_pos", "s_neg"]
    features = rest[:-2] if has_scores else rest
    expected = [f"x{i}" for i in range(1, len(features) + 1)]
    if features != expected:
        raise DataFormatError(
            f"{path}: feature columns must be x1..xm, got {features}"
        )
    if not features and not has_scores:
        raise DataFormatError(f"{path}: need feature or score columns")
    return len(features), has_scores


def _parse_float(raw: str, path: Path, line: int, column: str) -> float:
    try:
        value = float(raw)
    except ValueError:
        raise DataFormatError(
            f"{path}:{line}: column {column!r} is not a number: {raw!r}"
        ) from None
    if math.isnan(value):
        raise DataFormatError(f"{path}:{line}: column {column!r} is NaN")
    return value


def load_dataset(
    path: Path | str,
    positive_class: str,
    schema: str = "auto",
    *,
    class_names: set[str] | None = None,
) -> Dataset:
    """Read a dataset, mapping the named class to positive and the other to negative.

    Errors carry the offending line number.  Files may hold at most two class
    names; when two appear, `positive_class` must be one of them.  Files read
    for one run share `class_names`: the names of this file are added to it,
    and the rule holds for the union, so that a file naming a third class
    (such as a typo of the negative one) is rejected.
    """
    path = Path(path)
    if schema not in SCHEMAS:
        raise DataFormatError(f"schema must be one of {SCHEMAS}, got {schema!r}")
    with open(path, newline="", encoding="utf-8") as handle:
        rows = list(csv.reader(handle))
    if not rows:
        raise DataFormatError(f"{path}: empty file")
    n_features, has_scores = _parse_header(rows[0], path)
    if schema == "features" and has_scores:
        raise DataFormatError(f"{path}: schema 'features' forbids score columns")
    if schema == "scores" and n_features:
        raise DataFormatError(f"{path}: schema 'scores' forbids feature columns")
    if schema in ("scores", "both") and not has_scores:
        raise DataFormatError(f"{path}: schema {schema!r} requires score columns")
    if schema == "both" and not n_features:
        raise DataFormatError(f"{path}: schema 'both' requires feature columns")

    width = 2 + n_features + (2 if has_scores else 0)
    names = set() if class_names is None else class_names
    samples: list[Sample] = []
    for line, row in enumerate(rows[1:], start=2):
        if len(row) != width:
            raise DataFormatError(
                f"{path}:{line}: expected {width} columns, got {len(row)}"
            )
        sample_id = row[0]
        raw_label = row[1]
        if raw_label:
            names.add(raw_label)
        features = (
            tuple(
                _parse_float(row[2 + i], path, line, f"x{i + 1}")
                for i in range(n_features)
            )
            if n_features
            else None
        )
        scores = None
        if has_scores:
            s_pos = _parse_float(row[-2], path, line, "s_pos")
            s_neg = _parse_float(row[-1], path, line, "s_neg")
            try:
                scores = ScorePair(s_pos, s_neg, probability=True)
            except ValueError as err:
                raise DataFormatError(f"{path}:{line}: {err}") from None
        label = None
        if raw_label:
            label = (
                Label.POSITIVE if raw_label == positive_class else Label.NEGATIVE
            )
        try:
            samples.append(
                Sample(id=sample_id, features=features, scores=scores, true_label=label)
            )
        except ValueError as err:
            raise DataFormatError(f"{path}:{line}: {err}") from None

    if not samples:
        raise DataFormatError(f"{path}: no data rows")
    if len(names) > 2:
        raise DataFormatError(
            f"{path}: more than two classes: {sorted(names)}"
        )
    if len(names) == 2 and positive_class not in names:
        raise DataFormatError(
            f"{path}: positive class {positive_class!r} not among "
            f"{sorted(names)}"
        )
    try:
        return Dataset(tuple(samples))
    except ValueError as err:
        raise DataFormatError(f"{path}: {err}") from None


def write_dataset(dataset: Dataset, path: Path | str) -> None:
    """Write a dataset back out; labels use the canonical positive/negative names."""
    path = Path(path)
    has_features = dataset.feature_dim is not None
    has_scores = any(s.scores is not None for s in dataset)
    if has_scores and not all(s.scores is not None for s in dataset):
        raise ValueError("cannot write a dataset where only some samples have scores")
    header = ["id", "label"]
    if has_features:
        header += [f"x{i}" for i in range(1, dataset.feature_dim + 1)]
    if has_scores:
        header += ["s_pos", "s_neg"]
    with open(path, "w", newline="", encoding="utf-8") as handle:
        writer = csv.writer(handle, lineterminator="\n")
        writer.writerow(header)
        for sample in dataset:
            row = [sample.id, str(sample.true_label) if sample.true_label else ""]
            if has_features:
                row += [repr(v) for v in sample.features]
            if has_scores:
                row += [repr(sample.scores.s_pos), repr(sample.scores.s_neg)]
            writer.writerow(row)


@dataclass(frozen=True)
class SyntheticSpec:
    """Two isotropic Gaussian classes, means `separation` apart on the first axis."""

    n_per_class: int
    dim: int = 2
    separation: float = 1.0
    noise: float = 1.0
    seed: int = 0

    def __post_init__(self) -> None:
        if self.n_per_class < 1:
            raise ValueError(f"n_per_class must be >= 1, got {self.n_per_class}")
        if self.dim < 1:
            raise ValueError(f"dim must be >= 1, got {self.dim}")
        if not (math.isfinite(self.separation) and self.separation >= 0.0):
            raise ValueError(f"separation must be >= 0, got {self.separation}")
        if not (math.isfinite(self.noise) and self.noise > 0.0):
            raise ValueError(f"noise must be > 0, got {self.noise}")


def generate_synthetic(spec: SyntheticSpec) -> Dataset:
    """Draw the two classes with a seeded PCG64 generator; same spec, same data.

    Negative samples come first (class mean at the origin), then positive
    samples (mean at `separation` on the first axis).  Zero separation makes
    the features carry no label information at all.
    """
    rng = np.random.default_rng(spec.seed)
    width = len(str(spec.n_per_class))
    samples: list[Sample] = []
    for label, prefix, offset in (
        (Label.NEGATIVE, "n", 0.0),
        (Label.POSITIVE, "p", spec.separation),
    ):
        points = spec.noise * rng.standard_normal((spec.n_per_class, spec.dim))
        points[:, 0] += offset
        for i, point in enumerate(points, start=1):
            samples.append(
                Sample(
                    id=f"{prefix}{i:0{width}d}",
                    features=tuple(float(v) for v in point),
                    true_label=label,
                )
            )
    return Dataset(tuple(samples), spec.dim)

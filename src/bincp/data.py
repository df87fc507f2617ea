"""CSV ingestion and emission, bundled fixtures, and the synthetic generator.

File contract: UTF-8, comma separated, dot decimals, header required.
Columns are `id,label[,x1..xm][,s_pos,s_neg]`; score columns carry class
probabilities (s_pos belongs to whichever class the caller names positive).
An empty label field means the label is unknown.

A file is read through one csv reader a fixed chunk of rows at a time, each
chunk transposed onto per-column lists, so no list of every row is built.
Reading stops at the first row of the wrong width or that the csv module
cannot read (such as a field over `csv.field_size_limit()`), and every row
before it is checked too: an error names the earliest bad line.  Faults are
found by record, and a quoted field may hold line breaks, so an error message
re-reads the file to name the physical line where its record starts.  Every
CSV the package writes quotes its fields by one rule, `_quoted`.
"""

from __future__ import annotations

import csv
import importlib.resources
import math
import re
from dataclasses import dataclass
from itertools import islice
from pathlib import Path

import numpy as np

from .core import NEGATIVE, POSITIVE, UNKNOWN, Dataset, RowError, label_names

SCHEMAS = ("auto", "features", "scores", "both")

# Rows read and transposed at a time: enough to amortise the per-chunk
# calls, few enough that the garbage collector never holds many row lists.
_CHUNK_ROWS = 256

_NEEDS_QUOTES = re.compile('[,"\r\n]')


class DataFormatError(ValueError):
    """A file violated the dataset CSV contract."""


def _quoted(fields: list[str]) -> list[str]:
    """`fields`, each one that holds `,`, `"`, CR or LF quoted, its quotes doubled.

    This is RFC 4180 with a bare CR quoted too.  When no field needs quotes,
    `fields` itself comes back.
    """
    if not _NEEDS_QUOTES.search("".join(fields)):
        return fields
    return [
        '"' + field.replace('"', '""') + '"' if _NEEDS_QUOTES.search(field) else field
        for field in fields
    ]


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


def _parse_floats(
    columns: list[list[str]], names: list[str]
) -> tuple[np.ndarray, int, str | None]:
    """The values of numeric columns up to their first field that is not a number.

    Returns the (rows, len(names)) values of the rows before that field, its
    row and why it is bad; with no bad field, the row count and None.
    """
    rows = len(columns[0]) if columns else 0
    try:
        values = np.column_stack(
            [np.fromiter(map(float, column), float, rows) for column in columns]
        )
        if not np.isnan(values).any():
            return values, rows, None
    except ValueError:
        pass
    for row, fields in enumerate(zip(*columns)):
        for raw, name in zip(fields, names):
            try:
                value = float(raw)
            except ValueError:
                reason = f"column {name!r} is not a number: {raw!r}"
            else:
                if not math.isnan(value):
                    continue
                reason = f"column {name!r} is NaN"
            before = _parse_floats([column[:row] for column in columns], names)[0]
            return before, row, reason


def _record_lines(path: Path, *records: int) -> list[int]:
    """The physical line on which each data record of `path` starts.

    Records count from 0 after the header.  The file is read again with a
    fresh reader, so only error messages pay for it.
    """
    with open(path, newline="", encoding="utf-8") as handle:
        reader = csv.reader(handle)
        starts = []
        for _ in range(max(records) + 2):
            starts.append(reader.line_num + 1)
            next(reader)
    return [starts[record + 1] for record in records]


def _read_columns(
    reader, width: int, path: Path
) -> tuple[list[list[str]], tuple[int, str] | None]:
    """The fields of the remaining rows of `reader`, as `width` column lists.

    Rows are read `_CHUNK_ROWS` at a time.  Reading stops at the first row
    that is not `width` fields wide or that the csv module cannot read;
    returns the columns of the rows before it and its (line, reason), or
    None when every row was read.
    """
    columns: list[list[str]] = [[] for _ in range(width)]
    read = 0
    while True:
        chunk: list[list[str]] = []
        fault = None
        try:
            # `extend` keeps the rows read before a failing one, so they are
            # still checked for an earlier fault.
            chunk.extend(islice(reader, _CHUNK_ROWS))
        except csv.Error as err:
            fault = (reader.line_num, str(err))
        if set(map(len, chunk)) - {width}:
            stop = next(i for i, row in enumerate(chunk) if len(row) != width)
            line = _record_lines(path, read + stop)[0]
            fault = (line, f"expected {width} columns, got {len(chunk[stop])}")
            del chunk[stop:]
        for column, fields in zip(columns, zip(*chunk)):
            column.extend(fields)
        read += len(chunk)
        if fault is not None or len(chunk) < _CHUNK_ROWS:
            return columns, fault


def load_dataset(
    path: Path | str,
    positive_class: str,
    schema: str = "auto",
    *,
    class_names: set[str] | None = None,
) -> Dataset:
    """Read a dataset, mapping the named class to positive and the other to negative.

    The file is read in chunks of rows straight into columns.  Errors raise
    `DataFormatError` as `path:line: reason`, for the earliest bad line: a
    wrong column count, a field the csv module cannot read (one longer than
    `csv.field_size_limit()`, say), a field that is not a number or is NaN,
    a row `Dataset` rejects, or a repeated id, which also names the line of
    its first occurrence.  Files may hold at most two class
    names; when two appear, `positive_class` must be one of them.  Files read
    for one run share `class_names`: the names of this file are added to it,
    and the rule holds for the union, so that a file naming a third class
    (such as a typo of the negative one) is rejected.
    """
    path = Path(path)
    if schema not in SCHEMAS:
        raise DataFormatError(f"schema must be one of {SCHEMAS}, got {schema!r}")
    with open(path, newline="", encoding="utf-8") as handle:
        reader = csv.reader(handle)
        try:
            header = next(reader, None)
        except csv.Error as err:
            raise DataFormatError(f"{path}:{reader.line_num}: {err}") from None
        if header is None:
            raise DataFormatError(f"{path}: empty file")
        # The rows before the first bad line are checked too, so that the
        # error reported is the one on the earliest line.
        columns, fault = _read_columns(reader, len(header), path)
    n_features, has_scores = _parse_header(header, path)
    if schema == "features" and has_scores:
        raise DataFormatError(f"{path}: schema 'features' forbids score columns")
    if schema == "scores" and n_features:
        raise DataFormatError(f"{path}: schema 'scores' forbids feature columns")
    if schema in ("scores", "both") and not has_scores:
        raise DataFormatError(f"{path}: schema {schema!r} requires score columns")
    if schema == "both" and not n_features:
        raise DataFormatError(f"{path}: schema 'both' requires feature columns")

    ids, raw_labels, *numeric = columns
    if not ids and fault is None:
        raise DataFormatError(f"{path}: no data rows")
    values, stop, reason = _parse_floats(numeric, header[2:])
    if reason is not None:
        fault = (_record_lines(path, stop)[0], reason)
    names = set() if class_names is None else class_names
    names.update(set(raw_labels) - {""})
    raw_labels = np.array(raw_labels[:stop], dtype=object)
    labels = np.where(raw_labels == positive_class, POSITIVE, NEGATIVE)
    labels[raw_labels == ""] = UNKNOWN
    try:
        data = Dataset.from_columns(
            ids[:stop],
            labels,
            values[:, :n_features] if n_features else None,
            values[:, n_features:] if has_scores else None,
            probability=has_scores,
        )
    except RowError as err:
        if err.first is None:
            line, first = _record_lines(path, err.row)[0], ""
        else:
            line, before = _record_lines(path, err.row, err.first)
            first = f" (first on line {before})"
        raise DataFormatError(f"{path}:{line}: {err}{first}") from None
    if fault is not None:
        line, reason = fault
        raise DataFormatError(f"{path}:{line}: {reason}")

    if len(names) > 2:
        raise DataFormatError(
            f"{path}: more than two classes: {sorted(names)}"
        )
    if len(names) == 2 and positive_class not in names:
        raise DataFormatError(
            f"{path}: positive class {positive_class!r} not among "
            f"{sorted(names)}"
        )
    return data


def write_dataset(dataset: Dataset, path: Path | str) -> None:
    """Write a dataset back out; labels use the canonical positive/negative names.

    Ids are quoted by `_quoted` and floats written by `repr`, so `load_dataset`
    reads the same values back.
    """
    header = ["id", "label"]
    columns = [_quoted(dataset.ids.tolist()), label_names(dataset.labels)]
    if dataset.features is not None:
        header += [f"x{i}" for i in range(1, dataset.feature_dim + 1)]
        columns += [list(map(repr, column.tolist())) for column in dataset.features.T]
    if dataset.scores is not None:
        header += ["s_pos", "s_neg"]
        columns += [list(map(repr, column.tolist())) for column in dataset.scores.T]
    with open(path, "w", newline="", encoding="utf-8") as handle:
        handle.writelines(",".join(row) + "\n" for row in [header, *zip(*columns)])


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
    blocks = []
    for offset in (0.0, spec.separation):
        points = spec.noise * rng.standard_normal((spec.n_per_class, spec.dim))
        points[:, 0] += offset
        blocks.append(points)
    ids = [
        f"{prefix}{i:0{width}d}"
        for prefix in ("n", "p")
        for i in range(1, spec.n_per_class + 1)
    ]
    labels = np.repeat([NEGATIVE, POSITIVE], spec.n_per_class)
    return Dataset.from_columns(ids, labels, np.vstack(blocks))

"""CSV ingestion and emission, bundled fixtures, and the synthetic generator.

File contract: UTF-8, comma separated, dot decimals, header required.  An
input is read once, so it may be a pipe: a leading byte order mark, as
Excel writes, is skipped, and a byte that is not UTF-8 is an error naming
its line (`_decode`, which decodes a file that is not all ASCII once to
check it).
Columns are `id,label[,x1..xm][,s_pos,s_neg]`; score columns carry class
probabilities (s_pos belongs to whichever class the caller names positive).
An empty label field means the label is unknown.

A plain file (`_read_plain`) is parsed from its bytes by one `np.loadtxt`
call into fixed-width id and label fields and float columns, so no field
becomes a Python object: the path holds the bytes, the offsets of their
line ends and commas, and that table, and makes one `str` per id.  Any
other file, and one that call rejects, is read by the csv module
(`_read_csv`) one record at a time from the bytes, decoded a block at a
time: it holds the bytes, a `str` per id and label and an array of the
numbers, but no decoded copy of the file and no list of every row.  Both
paths give the same dataset and share the header, label and row checks,
and a bad field or row width sends a file to the csv path, so the messages
are the same too.  Each path gives the line on which every row starts (a
quoted field may hold line breaks), and every error names its line from
that table: the earliest bad line, whatever its fault.  Every CSV the
package writes quotes its fields by one rule, `_quoted`, and writes each
float as its `repr`.
"""

from __future__ import annotations

import codecs
import csv
import importlib.resources
import io
import math
import re
from array import array
from dataclasses import dataclass
from pathlib import Path

import numpy as np

from .core import NEGATIVE, POSITIVE, UNKNOWN, Dataset, RowError, label_names

_NEEDS_QUOTES = re.compile('[,"\r\n]')

# Bytes that send a file to the csv path: a quote, a CR, and a NUL, which
# the csv module of Python 3.10 rejects, are csv grammar; U+001C-U+001F are
# white space to numpy's C reader around a number, where `float()` rejects
# them.
_NOT_PLAIN = (b'"', b"\r", b"\x00", b"\x1c", b"\x1d", b"\x1e", b"\x1f")


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


def _decode(raw: bytes, path: Path | None = None) -> str:
    """The text of an input's bytes, with a leading UTF-8 byte order mark skipped.

    A byte that is not UTF-8 raises `DataFormatError` naming `path:line`,
    or `line N` without a path, the line counted as the csv module counts.
    """
    raw = raw.removeprefix(codecs.BOM_UTF8)
    try:
        return raw.decode("utf-8")
    except UnicodeDecodeError as err:
        line = len(re.findall(rb"\r\n?|\n", raw[: err.start])) + 1
        where = f"line {line}" if path is None else f"{path}:{line}"
        raise DataFormatError(
            f"{where}: byte {raw[err.start]:#04x} is not UTF-8 ({err.reason})"
        ) from None


def figure1_path() -> Path:
    """The bundled 21-sample example calibration set (classes A and B, scores)."""
    return Path(str(importlib.resources.files("bincp").joinpath("data/figure1.csv")))


def demo_test_path() -> Path:
    """A 3-row scored test fixture that pairs with the figure1 calibration set."""
    return Path(str(importlib.resources.files("bincp").joinpath("data/demo_test.csv")))


def _parse_header(columns: list[str], path: Path) -> tuple[int, bool]:
    """Check the header; return (feature count, has score columns).

    The header alone sets the layout; a stage that needs a missing column names it.
    """
    if len(columns) < 2 or columns[0] != "id" or columns[1] != "label":
        raise DataFormatError(f"{path}: header must start with 'id,label', got {columns[:2]}")
    rest = columns[2:]
    has_scores = len(rest) >= 2 and rest[-2:] == ["s_pos", "s_neg"]
    features = rest[:-2] if has_scores else rest
    expected = [f"x{i}" for i in range(1, len(features) + 1)]
    if features != expected:
        raise DataFormatError(f"{path}: feature columns must be x1..xm, got {features}")
    if not features and not has_scores:
        raise DataFormatError(f"{path}: need feature or score columns")
    return len(features), has_scores


def _read_plain(raw: bytes, path: Path) -> tuple | None:
    """`_read_csv`'s tuple from one `np.loadtxt` call, or None if `raw` is not plain.

    A file is plain when its bytes hold none of `_NOT_PLAIN` and no empty
    line, every line holds as many commas as the header, no line is longer
    than `csv.field_size_limit()` bytes, so no field is either, and
    `np.loadtxt` reads it with no NaN.  Each line of a plain file is its
    fields joined by commas, as the csv module reads them, and the C reader
    parses every number it accepts there to the bits of `float()`, so the
    csv path would build the same dataset.  The header is checked by
    `_parse_header`, as on the csv path.

    The line and comma offsets give the widest id and label, so the C
    reader fills fixed-width `S` fields with their bytes (it reads the lines
    as Latin-1, one character a byte) and no field becomes a Python object.
    A file whose fixed-width fields would hold more than four times its bytes
    (one id far longer than the rest, say) is left to the csv path.
    """
    if b"\n\n" in raw or any(byte in raw for byte in _NOT_PLAIN):
        return None
    buffer = np.frombuffer(raw, dtype=np.uint8)
    ends = np.flatnonzero(buffer == ord("\n"))
    if not raw.endswith(b"\n"):
        ends = np.append(ends, len(raw))
    starts = np.concatenate(([0], ends[:-1] + 1))
    if len(ends) < 2 or ends[0] == 0 or (ends - starts).max() > csv.field_size_limit():
        return None
    header = raw[: ends[0]].decode().split(",")
    n_features, has_scores = _parse_header(header, path)
    commas = np.flatnonzero(buffer == ord(","))
    if len(commas) != len(ends) * (len(header) - 1):
        return None
    commas = commas.reshape(len(ends), -1)
    if (commas[:, 0] < starts).any() or (commas[:, -1] > ends).any():
        return None
    widths = [(commas[1:, 0] - starts[1:]).max(), (commas[1:, 1] - commas[1:, 0]).max() - 1]
    if sum(widths) * (len(ends) - 1) > 4 * len(raw):
        return None
    id_width, label_width = (max(int(width), 1) for width in widths)
    dtype = np.dtype(
        [("id", f"S{id_width}"), ("label", f"S{label_width}"),
         ("values", float, (len(header) - 2,))]
    )
    del ends, starts, commas  # not held while the table is read
    try:
        table = np.loadtxt(
            io.BytesIO(raw), dtype, delimiter=",", comments=None, skiprows=1, ndmin=1,
            encoding="latin1",
        )
    except ValueError:
        return None
    if np.isnan(table["values"]).any():
        return None
    ids = list(map(bytes.decode, table["id"]))
    # Copied out, so that the table goes once its label column is coded.
    values = table["values"].copy()
    return n_features, has_scores, ids, table["label"], values, None, range(2, len(ids) + 2)


def _bad_field(names: list[str], fields) -> str | None:
    """Why the first field of a row that is not a number, or is NaN, is bad.

    `fields` may be text or floats, so a parsed row that holds a NaN names
    it by the same rule.
    """
    for name, field in zip(names, fields):
        try:
            if not math.isnan(float(field)):
                continue
        except ValueError:
            return f"column {name!r} is not a number: {field!r}"
        return f"column {name!r} is NaN"


def _read_csv(raw: bytes, path: Path) -> tuple:
    """Read a file's UTF-8 bytes with the csv module: (feature count, has
    score columns, ids, labels, values, fault, row start lines).

    One loop reads the records, noting the physical line on which each
    starts, and stops at the first that is the wrong width, that the csv
    module cannot read, or that holds a field `float()` rejects.  After it,
    the first NaN among the rows read cuts them back to its row.  `fault`
    names the line where reading stopped and why, or is None; the rows
    before it are returned, so that the row checks can still find an
    earlier bad line.
    """
    reader = csv.reader(io.TextIOWrapper(io.BytesIO(raw), encoding="utf-8", newline=""))
    try:
        header = next(reader, None)
    except csv.Error as err:
        raise DataFormatError(f"{path}:{reader.line_num}: {err}") from None
    if header is None:
        raise DataFormatError(f"{path}: empty file")
    n_features, has_scores = _parse_header(header, path)
    names = header[2:]
    ids, labels, values, fault = [], [], array("d"), None
    starts = [reader.line_num + 1]  # the line of each row read, and of the next
    try:
        for row in reader:
            if len(row) != len(header):
                fault = (starts[-1], f"expected {len(header)} columns, got {len(row)}")
                break
            try:
                values.extend(map(float, row[2:]))
            except ValueError:
                fault = (starts[-1], _bad_field(names, row[2:]))
                break
            ids.append(row[0])
            labels.append(row[1])
            starts.append(reader.line_num + 1)
    except csv.Error as err:
        fault = (reader.line_num, str(err))
    if not ids and fault is None:
        raise DataFormatError(f"{path}: no data rows")
    # A row that `float()` stopped in may have left its first numbers behind.
    values = np.asarray(values)[: len(ids) * len(names)].reshape(len(ids), len(names))
    nan = np.isnan(values).any(axis=1)
    if nan.any():
        row = int(nan.argmax())
        fault = (starts[row], _bad_field(names, values[row].tolist()))
        del ids[row:], labels[row:]
        values = values[:row]
    return n_features, has_scores, ids, np.array(labels, dtype=object), values, fault, starts


def _text(label: bytes | str) -> str:
    """A label field as text: bytes are UTF-8."""
    return label.decode() if isinstance(label, bytes) else label


def _label_codes(labels: np.ndarray, positive_class: str, names: set[str]) -> np.ndarray:
    """The int8 code of each label in a column of `bytes` or `str`; the
    column's class names are added to `names`.

    A file that can be read holds at most three distinct labels, two names
    and the empty one, so each is coded by one comparison with the whole
    column; any past those come from one sort, for the error naming them
    (their rows stay coded negative).
    """
    codes = np.full(len(labels), NEGATIVE, dtype=np.int8)
    rest = np.ones(len(labels), dtype=bool)
    found = []
    while rest.any() and len(found) < 3:
        first = rest.argmax()
        found.append(labels[first])
        # Against a slice, not the value: numpy would drop a str's trailing NULs.
        same = labels == labels[first : first + 1]
        rest &= ~same
        name = _text(found[-1])
        codes[same] = UNKNOWN if not name else POSITIVE if name == positive_class else NEGATIVE
    found += np.unique(labels[rest]).tolist()
    names.update(filter(None, map(_text, found)))
    return codes


def load_dataset(
    path: Path | str,
    positive_class: str,
    *,
    class_names: set[str] | None = None,
) -> Dataset:
    """Read a dataset, mapping the named class to positive and the other to negative.

    The header alone sets which columns the dataset holds (`_parse_header`).
    A plain file is parsed by numpy's C reader (`_read_plain`), any other
    one by the csv module a record at a time (`_read_csv`); the file's text
    alone decides.  Both paths give the same dataset, and a bad field or row
    width sends a file to the csv path, which names its line.  Errors raise
    `DataFormatError` as `path:line: reason`, for the earliest bad line: a
    wrong column count, a field the csv module cannot read (one longer than
    `csv.field_size_limit()`, say), a field that is not a number or is NaN,
    a row `Dataset` rejects, or a repeated id, which also names the line of
    its first occurrence.  Files may hold at most two class names; when two
    appear, `positive_class` must be one of them.  Files read for one run
    share `class_names`: the names of this file are added to it, and the
    rule holds for the union, so that a file naming a third class (such as a
    typo of the negative one) is rejected.
    """
    path = Path(path)
    raw = path.read_bytes().removeprefix(codecs.BOM_UTF8)
    if not raw.isascii():
        _decode(raw, path)  # a byte that is not UTF-8 is the first error
    n_features, has_scores, ids, labels, values, fault, lines = _read_plain(
        raw, path
    ) or _read_csv(raw, path)
    del raw
    names = set() if class_names is None else class_names
    labels = _label_codes(labels, positive_class, names)
    try:
        data = Dataset.from_columns(
            ids,
            labels,
            values[:, :n_features] if n_features else None,
            values[:, n_features:] if has_scores else None,
            probability=has_scores,
        )
    except RowError as err:
        first = "" if err.first is None else f" (first on line {lines[err.first]})"
        raise DataFormatError(f"{path}:{lines[err.row]}: {err}{first}") from None
    if fault is not None:
        line, reason = fault
        raise DataFormatError(f"{path}:{line}: {reason}")

    if len(names) > 2:
        raise DataFormatError(f"{path}: more than two classes: {sorted(names)}")
    if len(names) == 2 and positive_class not in names:
        raise DataFormatError(
            f"{path}: positive class {positive_class!r} not among {sorted(names)}"
        )
    return data


def write_dataset(dataset: Dataset, path: Path | str) -> None:
    """Write a dataset back out; labels use the canonical positive/negative names.

    Ids are quoted by `_quoted` and each float is written as its `repr`,
    so `load_dataset` reads the same values back.
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

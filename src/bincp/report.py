"""The report format: the field tables, the config block, the renderers and
the CSV writers.

This module alone decides what a report holds and how each format writes
it.  The field tables say where the JSON, CSV and text reports put each
figure that `evaluate` names, and which kind of value it holds;
`emit_report` renders a document from them and `parse_report` checks one
against them, the ranges of the config block included.  The regions and
trajectory CSV writers live here too.  `pipeline` runs the stages and
assembles the document from their blocks and this module's config block.
"""

from __future__ import annotations

import json
import math
from dataclasses import dataclass
from itertools import chain
from typing import Callable, Iterator

import numpy as np

from .core import REGIONS, SignificanceLevel, label_names
from .data import _decode, _quoted
from .evaluate import REGION_KINDS, SCORED_ACCURACY_MODES, _check_threshold
from .icp import SplitConfig
from .nonconformity import MeasureSpec
from .online import OnlineRound

REPORT_FORMATS = ("json", "csv", "text")

_ABSENT_TEXT = "—"


def _text_value(value) -> str:
    if value is None:
        return _ABSENT_TEXT
    if isinstance(value, float):
        return f"{value:.4f}"
    return str(value)


# The kinds of value a report figure holds; `parse_report`'s JSON reader
# already rejects non-finite floats.
_FLOAT, _COUNT, _STRING, _BOOL = "a finite float", "a count", "a string", "a bool"
_OBJECT, _LEVELS = "an object", "a non-empty list of finite floats"


@dataclass(frozen=True)
class _Field:
    """One report figure: the kind of value it holds and where each format puts it.

    `path` holds its keys inside a JSON block, `column` its CSV column, and
    `label` and `text` its name and format on a text line.  `kind` is one
    of the kinds above, and an `optional` figure may also be None.
    """

    path: tuple[str, ...]
    column: str
    label: str
    text: Callable[[object], str]
    kind: str
    optional: bool

    def holds(self, value) -> bool:
        if value is None:
            return self.optional
        if self.kind == _COUNT:
            # A bool is an int in Python, and no count.
            return isinstance(value, int) and not isinstance(value, bool) and value >= 0
        if self.kind == _LEVELS:
            return (isinstance(value, list) and value != []
                    and all(isinstance(v, float) for v in value))
        kinds = {_FLOAT: float, _STRING: str, _BOOL: bool, _OBJECT: dict}
        return isinstance(value, kinds[self.kind])


def _field(*path, column=None, label=None, text=_text_value, kind=_FLOAT, optional=False):
    key = path[-1]
    return _Field(path, column or key, label or key, text, kind, optional)


def _group(block, keys, prefix, optional=False) -> tuple[_Field, ...]:
    """Float fields `block.key` with CSV column `prefix + key`."""
    return tuple(_field(block, key, column=prefix + key, optional=optional) for key in keys)


_RATES = ("accuracy", "sensitivity", "specificity", "auroc")

# Every figure of a result row, as (text line heading, fields on that line).
# The JSON result row, the CSV columns and the text lines all come from this
# table, in this order.
_RESULT_LINES = (
    ("", (
        _field("epsilon", text=str),
        _field("confidence_percent", label="confidence", text="{}%".format),
        _field("n", kind=_COUNT),
    )),
    ("  ", (_field("validity"), _field("efficiency"))),
    ("  regions  ", _group("distribution", REGION_KINDS, "frac_")),
    ("  scored_accuracy  ", _group(
        "scored_accuracy", SCORED_ACCURACY_MODES, "scored_accuracy_"
    )),
    ("  binary  ", _group("binary", _RATES, "binary_", optional=True)),
    ("  singleton  ", _group("singleton_conditional", _RATES, "singleton_", optional=True) + (
        _field("singleton_conditional", "n_singleton", kind=_COUNT),
        _field(
            "singleton_conditional", "false_positives_in_singletons",
            label="false_positives", kind=_COUNT,
        ),
    )),
)
_RESULT_FIELDS = tuple(field for _, fields in _RESULT_LINES for field in fields)
_CALIBRATION_FIELDS = (
    _field("accuracy", column="calibration_accuracy", optional=True),
    _field("auroc", column="calibration_auroc", optional=True),
    _field("n", column="calibration_n", kind=_COUNT),
)

# The config figures of the text report's run line, and the test set's size.
_CONFIG_FIELDS = (
    _field("positive_class", kind=_STRING),
    _field("measure", "kind", label="measure", kind=_STRING),
    _field("measure", "k", kind=_COUNT),
    _field("mondrian", kind=_BOOL),
)
# The rest of the config block is checked but not rendered, the split's
# figures when it is an object.
_CONFIG_CHECKED = (
    _field("threshold"), _field("smoothed", kind=_BOOL),
    _field("smoothing_seed", kind=_COUNT, optional=True),
    _field("split", kind=_OBJECT, optional=True), _field("epsilons", kind=_LEVELS),
)
_SPLIT_FIELDS = (
    _field("split", "proper_fraction"), _field("split", "seed", kind=_COUNT),
    _field("split", "stratified", kind=_BOOL),
)
_N_TEST = _field("n_test", kind=_COUNT, optional=True)

REPORT_CSV_COLUMNS = tuple(
    field.column for field in _RESULT_FIELDS + _CALIBRATION_FIELDS
)


def _value(block: dict, path: tuple[str, ...]):
    for key in path:
        block = block[key]
    return block


def _config_block(config) -> dict:
    """The config block of a `pipeline.RunConfig`, as `parse_report` checks it."""
    seed, split = config.smoothing_seed, None
    if config.split is not None:
        split = {
            "proper_fraction": float(config.split.proper_fraction),
            "seed": int(config.split.seed),
            "stratified": bool(config.split.stratified),
        }
    return {
        "positive_class": config.positive_class,
        "measure": {"kind": config.measure.kind, "k": int(config.measure.k)},
        "mondrian": bool(config.mondrian),
        "threshold": float(config.threshold),
        "smoothed": seed is not None,
        "smoothing_seed": None if seed is None else int(seed),
        "split": split,
        "epsilons": [float(e) for e in config.epsilons],
    }


def _cell(value) -> str:
    if value is None:
        return ""
    if isinstance(value, float):
        return repr(value)
    return str(value)


def _flat_rows(document: dict) -> list[list]:
    shared = [_value(document["calibration"], field.path) for field in _CALIBRATION_FIELDS]
    results = document["results"]
    if not results:
        return [[None] * len(_RESULT_FIELDS) + shared]
    return [
        [_value(result, field.path) for field in _RESULT_FIELDS] + shared
        for result in results
    ]


def _text_line(
    heading: str, fields: tuple[_Field, ...], block: dict, sep: str = "  "
) -> str:
    return heading + sep.join(
        f"{field.label}={field.text(_value(block, field.path))}" for field in fields
    )


def _render_text(document: dict) -> str:
    lines = []
    if "config" in document:
        lines.append(_text_line("run  ", _CONFIG_FIELDS, document["config"], sep=" "))
    # The text line leads with the calibration size.
    *rates, size = _CALIBRATION_FIELDS
    lines.append(_text_line("calibration  ", (size, *rates), document["calibration"]))
    for result in document["results"]:
        lines.append("")
        lines += (_text_line(heading, fields, result) for heading, fields in _RESULT_LINES)
    return "\n".join(lines) + "\n"


def emit_report(document: dict, fmt: str) -> bytes:
    """Render a report document; json is canonical and emit(parse(x)) == x.

    The csv and text formats read every figure of the field tables, so they
    take the documents `run_pipeline` writes and `parse_report` accepts.
    """
    if fmt not in REPORT_FORMATS:
        raise ValueError(f"format must be one of {REPORT_FORMATS}, got {fmt!r}")
    if fmt == "json":
        text = json.dumps(document, sort_keys=True, indent=2, allow_nan=False) + "\n"
    elif fmt == "csv":
        # Cells go through `_quoted`: `report --in` renders outside documents.
        rows = [list(REPORT_CSV_COLUMNS)]
        rows += ([_cell(value) for value in row] for row in _flat_rows(document))
        text = "".join(",".join(_quoted(row)) + "\n" for row in rows)
    else:
        text = _render_text(document)
    return text.encode("utf-8")


def _finite(text: str) -> float:
    value = float(text)
    if not math.isfinite(value):
        raise ValueError(f"{text} is not a finite number")
    return value


def parse_report(data: bytes) -> dict:
    """Read back a JSON report document.

    Every result and calibration figure must be present and of its field's
    kind, and so must every config figure and `n_test` when the document
    holds them; the config figures must also lie in the ranges a run
    accepts.  bincp writes no NaN or infinity, so a document holding one
    (as a constant, or as a number too large for a float) is not a report.
    The bytes are decoded as every input is (`data._decode`).
    """
    try:
        document = json.loads(_decode(data), parse_constant=_finite, parse_float=_finite)
    except ValueError as err:  # JSONDecodeError and DataFormatError too
        raise ValueError(f"not a report document: {err}") from None
    if not isinstance(document, dict) or "results" not in document:
        raise ValueError("not a report document: missing 'results'")
    # "config" is checked before its "measure" is looked up.
    for name in ("calibration", "config", "config.measure"):
        block = document
        for key in name.split("."):
            block = block.get(key, {})
        if not isinstance(block, dict):
            raise ValueError(f"not a report document: {name!r} is not an object")
    if not isinstance(document["results"], list):
        raise ValueError("not a report document: 'results' is not a list")
    blocks = [(f"result {number}", result, _RESULT_FIELDS)
              for number, result in enumerate(document["results"], start=1)]
    blocks.append(("calibration", document.get("calibration", {}), _CALIBRATION_FIELDS))
    # A document without a config block renders no run line.
    if "config" in document:
        config = document["config"]
        fields = _CONFIG_FIELDS + _CONFIG_CHECKED
        if isinstance(config.get("split"), dict):
            fields += _SPLIT_FIELDS
        blocks.append(("config", config, fields))
    if "n_test" in document:
        blocks.append(("document", document, (_N_TEST,)))
    for where, block, fields in blocks:
        for field in fields:
            name = ".".join(field.path)
            try:
                value = _value(block, field.path)
            except (KeyError, TypeError):
                raise ValueError(f"not a report document: {where} has no {name!r}") from None
            if not field.holds(value):
                kind = field.kind + " or null" if field.optional else field.kind
                raise ValueError(f"not a report document: {where} {name!r} is not {kind}")
    if "config" in document:
        _check_config_ranges(document["config"])
    return document


def _check_config_ranges(config: dict) -> None:
    """Hold a typed config block to the run's own validators, which state the ranges."""
    measure, split = config["measure"], config["split"]
    checks = [
        ("measure", MeasureSpec, (measure["kind"], measure["k"])),
        ("threshold", _check_threshold, (config["threshold"],)),
    ]
    if split is not None:
        checks.append(
            ("split", SplitConfig, (split["proper_fraction"], split["seed"], split["stratified"]))
        )
    checks += (("epsilons", SignificanceLevel, (value,)) for value in config["epsilons"])
    for name, check, args in checks:
        try:
            check(*args)
        except ValueError as err:
            raise ValueError(f"not a report document: config {name!r}: {err}") from None


# Rows per chunk of the regions CSV, about 270 KB of text at 66-byte rows.
_CHUNK_ROWS = 4096


def regions_csv_chunks(result) -> Iterator[bytes]:
    """Per-sample regions for every requested epsilon, in input order, as encoded chunks.

    `result` is a `pipeline.PipelineResult`.  The header comes first, then
    at most `_CHUNK_ROWS` whole rows to a chunk, so every chunk ends in a
    newline; a writer holds one chunk at a time, so its memory grows with
    the test rows and not with the rows times the epsilons.  A row is two pieces: its id and a tail,
    `,label,p_pos,p_neg,region` and the line end followed by the next row's
    epsilon (the last tail of a chunk stops at the line end).  A tail
    depends only on its row's label, p-values, told apart by their bits,
    and region, so each distinct tail is formatted once per epsilon and a
    chunk is one `str.join` of ids and tails.  Ids are quoted by
    `data._quoted`, so a `csv.reader` reads every id back as it was;
    labels, p-values and region names never need quotes.
    """
    yield b"epsilon,id,true_label,p_pos,p_neg,region\n"
    if not result.regions:
        return
    test = result.test
    ids = _quoted(test.ids.tolist())
    p_pos, p_neg = (np.asarray(p, dtype=float) for p in result.p_values)
    (pos_bits, pos), (neg_bits, neg) = (
        np.unique(p.view(np.int64), return_inverse=True) for p in (p_pos, p_neg)
    )
    label = test.labels.astype(np.int64) + 1
    _, first, rows = np.unique(
        (label * len(pos_bits) + pos) * len(neg_bits) + neg, return_index=True, return_inverse=True
    )
    fields = [
        f",{name},{p!r},{q!r},"
        for name, p, q in zip(
            label_names(test.labels[first]), p_pos[first].tolist(), p_neg[first].tolist()
        )
    ]
    for value, codes in result.regions.items():
        prefix = repr(float(value)) + ","
        ends = [f"{kind}\n{prefix}" for kind in REGIONS]
        keys = rows * len(REGIONS) + codes
        tails = [""] * (len(fields) * len(REGIONS))
        for key in np.flatnonzero(np.bincount(keys)).tolist():
            tails[key] = fields[key // len(REGIONS)] + ends[key % len(REGIONS)]
        for start in range(0, len(ids), _CHUNK_ROWS):
            stop = start + _CHUNK_ROWS
            pieces = list(map(tails.__getitem__, keys[start:stop].tolist()))
            pieces[-1] = pieces[-1].removesuffix(prefix)
            yield "".join(
                chain([prefix], chain.from_iterable(zip(ids[start:stop], pieces)))
            ).encode("utf-8")


def trajectory_csv(rounds: list[OnlineRound]) -> bytes:
    """One row per on-line round; no field of it ever needs quotes."""
    lines = ["round,region,true_label,cumulative_error_rate\n"]
    lines += [
        f"{item.round_index},{item.region},{item.true_label},"
        f"{item.cumulative_error_rate!r}\n"
        for item in rounds
    ]
    return "".join(lines).encode("utf-8")

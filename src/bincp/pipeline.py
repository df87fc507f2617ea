"""End-to-end runs: load, split, score, calibrate, predict, evaluate, emit.

Every run is a pure function of its input files and configuration; reports
carry no timestamps or environment details, so rerunning a configuration
reproduces the output byte for byte.  Data moves between the stages as
`Dataset` columns: a run computes the p-value columns of its test set once,
derives the region codes of each epsilon from them, and the report and
regions writers format whole columns.
"""

from __future__ import annotations

import json
from contextlib import contextmanager
from dataclasses import dataclass
from itertools import chain, repeat
from operator import attrgetter
from pathlib import Path
from typing import Callable

import numpy as np

from .core import REGIONS, Dataset, Label, SignificanceLevel, label_names
from .data import _quoted, load_dataset
from .evaluate import (
    SCORED_ACCURACY_MODES,
    _check_threshold,
    calibration_report,
    evaluate_predictions,
)
from .icp import (
    SplitConfig,
    build_calibration_table,
    predict_set,
    region,
    split_dataset,
)
from .nonconformity import MeasureSpec, TrainingBag, score_dataset
from .online import OnlineRound, run_online

REPORT_FORMATS = ("json", "csv", "text")

_ABSENT_TEXT = "—"


def _opt(value: float | None) -> float | None:
    return None if value is None else float(value)


def _text_value(value) -> str:
    if value is None:
        return _ABSENT_TEXT
    if isinstance(value, float):
        return f"{value:.4f}"
    return str(value)


@dataclass(frozen=True)
class _Field:
    """One report figure and where each report format puts it.

    `path` holds its keys inside a JSON block, `source` the dotted attribute
    of the report object it is read from, `cast` its JSON type, and `label`
    and `text` its name and format on a text line.
    """

    path: tuple[str, ...]
    column: str
    label: str
    source: str
    cast: Callable[[object], object]
    text: Callable[[object], str]


def _field(*path, column=None, label=None, source=None, cast=float, text=_text_value):
    key = path[-1]
    return _Field(path, column or key, label or key, source or ".".join(path), cast, text)


def _group(block, keys, prefix, source=None, cast=float) -> tuple[_Field, ...]:
    """Fields `block.key` with CSV column `prefix + key`, read from `source + key`."""
    return tuple(
        _field(block, key, column=prefix + key, source=source and source + key, cast=cast)
        for key in keys
    )


_REGION_KINDS = ("correct_single", "false_single", "both", "empty")
_RATES = ("accuracy", "sensitivity", "specificity", "auroc")

# Every figure of a result row, as (text line heading, fields on that line).
# The JSON result row, the CSV columns and the text lines all come from this
# table, in this order.
_RESULT_LINES = (
    ("", (
        _field("epsilon", text=str),
        _field("confidence_percent", label="confidence", text="{}%".format),
        _field("n", cast=int, text=str),
    )),
    ("  ", (_field("validity"), _field("efficiency"))),
    ("  regions  ", _group(
        "distribution", _REGION_KINDS, "frac_", "distribution.frac_"
    )),
    ("  scored_accuracy  ", _group(
        "scored_accuracy", SCORED_ACCURACY_MODES, "scored_accuracy_", "scored_accuracy_"
    )),
    ("  binary  ", _group("binary", _RATES, "binary_", cast=_opt)),
    ("  singleton  ", _group("singleton_conditional", _RATES, "singleton_", cast=_opt) + (
        _field("singleton_conditional", "n_singleton", cast=int, text=str),
        _field(
            "singleton_conditional", "false_positives_in_singletons",
            label="false_positives", cast=int, text=str,
        ),
    )),
)
_RESULT_FIELDS = tuple(field for _, fields in _RESULT_LINES for field in fields)
_CALIBRATION_FIELDS = (
    _field("accuracy", column="calibration_accuracy", cast=_opt),
    _field("auroc", column="calibration_auroc", cast=_opt),
    _field("n", column="calibration_n", cast=int),
)

REPORT_CSV_COLUMNS = tuple(
    field.column for field in _RESULT_FIELDS + _CALIBRATION_FIELDS
)


def _json_block(fields: tuple[_Field, ...], report) -> dict:
    block: dict = {}
    for field in fields:
        *parents, key = field.path
        node = block
        for parent in parents:
            node = node.setdefault(parent, {})
        node[key] = field.cast(attrgetter(field.source)(report))
    return block


def _value(block: dict, path: tuple[str, ...]):
    for key in path:
        block = block[key]
    return block


class PipelineError(ValueError):
    """A pipeline stage failed; the message names the stage."""


@contextmanager
def _stage(name: str):
    try:
        yield
    except PipelineError:
        raise
    except ValueError as err:
        raise PipelineError(f"{name}: {err}") from err


@dataclass(frozen=True)
class RunConfig:
    """One batch run: where the data lives and how to score and calibrate it.

    A `smoothing_seed` smooths the test p-values with ties drawn from it.
    """

    positive_class: str
    epsilons: tuple[float, ...]
    measure: MeasureSpec = MeasureSpec("passthrough")
    mondrian: bool = True
    threshold: float = 0.5
    train_path: Path | None = None
    calibration_path: Path | None = None
    proper_path: Path | None = None
    test_path: Path | None = None
    split: SplitConfig | None = None
    smoothing_seed: int | None = None
    schema: str = "auto"


@dataclass(frozen=True)
class PipelineResult:
    """The report document plus, when a test set was given, its predictions.

    `p_values` holds the (positive, negative) p-value columns of the test
    rows, and `regions` their region codes per epsilon, in config order.
    """

    document: dict
    p_values: tuple[np.ndarray, np.ndarray] | None
    regions: dict[float, np.ndarray]
    test: Dataset | None


def _validate_config(config: RunConfig) -> None:
    if (config.train_path is None) == (config.calibration_path is None):
        raise ValueError("exactly one of train_path and calibration_path is required")
    if config.train_path is not None and config.proper_path is not None:
        raise ValueError("proper_path only applies when calibration_path is given")
    if config.proper_path is not None and not config.measure.needs_bag:
        raise ValueError(f"proper_path does not apply to measure {config.measure.kind!r}")
    if config.train_path is not None and config.split is None:
        raise ValueError("train_path requires a split configuration")
    if config.calibration_path is not None and config.split is not None:
        raise ValueError("split configuration only applies to train_path")
    if not config.epsilons:
        raise ValueError("at least one epsilon is required")
    for value in config.epsilons:
        SignificanceLevel(value)
    _check_threshold(config.threshold)
    if config.measure.needs_bag:
        if config.calibration_path is not None and config.proper_path is None:
            raise ValueError(
                f"measure {config.measure.kind!r} needs proper_path when "
                "calibration_path is given"
            )


def _config_block(config: RunConfig) -> dict:
    split = None
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
        "smoothed": config.smoothing_seed is not None,
        "smoothing_seed": config.smoothing_seed,
        "split": split,
        "epsilons": [float(e) for e in config.epsilons],
    }


def run_pipeline(config: RunConfig) -> PipelineResult:
    """Run every stage the configuration asks for and assemble the report document."""
    with _stage("config"):
        _validate_config(config)

    with _stage("load"):
        # Class names are checked across the files of the run: a typo in a
        # file holding one class would otherwise read as the negative class.
        class_names: set[str] = set()

        def load(path: Path) -> Dataset:
            return load_dataset(
                path, config.positive_class, config.schema, class_names=class_names
            )

        proper = test = None
        if config.train_path is not None:
            train = load(config.train_path)
        else:
            calibration = load(config.calibration_path)
            if config.proper_path is not None:
                proper = load(config.proper_path)
        if config.test_path is not None:
            test = load(config.test_path)

    if config.train_path is not None:
        with _stage("split"):
            proper, calibration = split_dataset(train, config.split)

    with _stage("score"):
        bag = None
        if config.measure.needs_bag:
            bag = TrainingBag.from_dataset(proper)
        calibration = score_dataset(config.measure, bag, calibration)
        if test is not None:
            test = score_dataset(config.measure, bag, test)

    with _stage("calibrate"):
        table = build_calibration_table(calibration, config.mondrian)

    with _stage("calibration-report"):
        calibration_block = _json_block(
            _CALIBRATION_FIELDS, calibration_report(calibration, config.threshold)
        )

    p_values = None
    regions: dict[float, np.ndarray] = {}
    results: list[dict] = []
    if test is not None:
        # P-values do not depend on epsilon: one draw of smoothing ties
        # serves every level, so regions nest across epsilon.
        rng = None
        if config.smoothing_seed is not None:
            rng = np.random.default_rng(config.smoothing_seed)
        with _stage("predict"):
            p_values = predict_set(table, test, rng=rng)
        labelled = test.fully_labelled()
        for value in dict.fromkeys(config.epsilons):
            regions[value] = region(*p_values, SignificanceLevel(value))
            if labelled:
                with _stage("evaluate"):
                    report = evaluate_predictions(
                        regions=regions[value],
                        s_pos=test.scores[:, 0],
                        positive=test.positive,
                        threshold=config.threshold,
                        epsilon=value,
                        probability=test.probability,
                    )
                results.append(_json_block(_RESULT_FIELDS, report))

    document = {
        "config": _config_block(config),
        "calibration": calibration_block,
        "n_test": None if test is None else len(test),
        "results": results,
    }
    return PipelineResult(document, p_values, regions, test)


@dataclass(frozen=True)
class OnlineConfig:
    """One on-line simulation: a feature dataset streamed in file order."""

    data_path: Path
    positive_class: str
    epsilon: float
    initial_size: int = 10
    k: int = 1
    schema: str = "auto"


def simulate_online(config: OnlineConfig) -> list[OnlineRound]:
    """Seed the bag with the first rows of the file and stream the rest."""
    with _stage("config"):
        eps = SignificanceLevel(config.epsilon)
        if config.initial_size < 1:
            raise ValueError(
                f"initial_size must be >= 1, got {config.initial_size}"
            )
        if config.k < 1:
            raise ValueError(f"k must be >= 1, got {config.k}")
    with _stage("load"):
        data = load_dataset(config.data_path, config.positive_class, config.schema)
        if not data.fully_labelled():
            raise ValueError("on-line simulation requires labelled samples")
        if config.initial_size >= len(data):
            raise ValueError(
                f"initial_size {config.initial_size} leaves no stream "
                f"(dataset has {len(data)} rows)"
            )
    with _stage("simulate"):
        initial = TrainingBag.from_dataset(data.take(slice(config.initial_size)))
        rest = data.take(slice(config.initial_size, None))
        labels = [Label.POSITIVE if p else Label.NEGATIVE for p in rest.positive.tolist()]
        return run_online(initial, zip(rest.features, labels), eps, config.k)


def _cell(value) -> str:
    if value is None:
        return ""
    if isinstance(value, bool):
        return str(value).lower()
    if isinstance(value, float):
        return repr(value)
    return str(value)


def _flat_rows(document: dict) -> list[list]:
    calibration = document.get("calibration", {})
    shared = [calibration.get(field.path[0]) for field in _CALIBRATION_FIELDS]
    results = document.get("results", [])
    if not results:
        return [[None] * len(_RESULT_FIELDS) + shared]
    return [
        [_value(result, field.path) for field in _RESULT_FIELDS] + shared
        for result in results
    ]


def _text_line(heading: str, fields: tuple[_Field, ...], values: list) -> str:
    return heading + "  ".join(
        f"{field.label}={field.text(value)}" for field, value in zip(fields, values)
    )


def _render_text(document: dict) -> str:
    lines = []
    config = document.get("config", {})
    if config:
        measure = config.get("measure", {})
        lines.append(
            "run  positive_class={} measure={} k={} mondrian={}".format(
                config.get("positive_class"),
                measure.get("kind"),
                measure.get("k"),
                config.get("mondrian"),
            )
        )
    calibration = document.get("calibration", {})
    # The text line leads with the calibration size.
    *rates, size = _CALIBRATION_FIELDS
    fields = (size, *rates)
    lines.append(
        _text_line(
            "calibration  ", fields, [calibration.get(f.path[0]) for f in fields]
        )
    )
    for result in document.get("results", []):
        lines.append("")
        for heading, fields in _RESULT_LINES:
            lines.append(
                _text_line(heading, fields, [_value(result, f.path) for f in fields])
            )
    return "\n".join(lines) + "\n"


def emit_report(document: dict, fmt: str) -> bytes:
    """Render a report document; json is canonical and emit(parse(x)) == x."""
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


def parse_report(data: bytes) -> dict:
    """Read back a JSON report document."""
    try:
        document = json.loads(data.decode("utf-8"))
    except (UnicodeDecodeError, json.JSONDecodeError) as err:
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
    for number, result in enumerate(document["results"], start=1):
        for field in _RESULT_FIELDS:
            try:
                _value(result, field.path)
            except (KeyError, TypeError):
                raise ValueError(
                    f"not a report document: result {number} has no "
                    f"{'.'.join(field.path)!r}"
                ) from None
    return document


def _reprs(column: np.ndarray) -> list[str]:
    """`repr` of each value of a float column, formatted once per distinct value.

    Values are told apart by their bits, so -0.0 keeps its own text.
    """
    bits = np.asarray(column, dtype=float).view(np.int64)
    bits, index = np.unique(bits, return_inverse=True)
    return list(map(list(map(repr, bits.view(float).tolist())).__getitem__, index.tolist()))


def regions_csv(result: PipelineResult) -> bytes:
    """Per-sample regions for every requested epsilon, in input order.

    A row is three pieces: the epsilon, the fields every epsilon shares and
    the region name.  Each block is one `str.join` of those pieces, encoded
    on its own, so the bytes join holds a handful of blocks, not a buffer
    per piece.  Ids are quoted by `data._quoted`, so a `csv.reader` reads
    every id back as it was; labels, p-values and region names never need
    quotes.
    """
    blocks = ["epsilon,id,true_label,p_pos,p_neg,region\n".encode("utf-8")]
    if result.regions:
        # The fields shared by every epsilon are formatted once.
        test = result.test
        ids = _quoted(test.ids.tolist())
        p_pos, p_neg = map(_reprs, result.p_values)
        shared = [
            f"{id_},{label},{pos},{neg},"
            for id_, label, pos, neg in zip(ids, label_names(test.labels), p_pos, p_neg)
        ]
        ends = [f"{kind}\n" for kind in REGIONS]
        for value, codes in result.regions.items():
            pieces = zip(
                repeat(repr(float(value)) + ","),
                shared,
                map(ends.__getitem__, codes.tolist()),
            )
            blocks.append("".join(chain.from_iterable(pieces)).encode("utf-8"))
    return b"".join(blocks)


def trajectory_csv(rounds: list[OnlineRound]) -> bytes:
    """One row per on-line round; no field of it ever needs quotes."""
    lines = ["round,region,true_label,cumulative_error_rate\n"]
    lines += [
        f"{item.round_index},{item.region},{item.true_label},"
        f"{item.cumulative_error_rate!r}\n"
        for item in rounds
    ]
    return "".join(lines).encode("utf-8")

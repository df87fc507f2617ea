"""End-to-end runs: load, split, score, calibrate, predict, evaluate, emit.

Every run is a pure function of its input files and configuration; reports
carry no timestamps or environment details, so rerunning a configuration
reproduces the output byte for byte.
"""

from __future__ import annotations

import csv
import io
import json
import math
from contextlib import contextmanager
from dataclasses import dataclass
from pathlib import Path

import numpy as np

from .core import Dataset, Label, SignificanceLevel
from .data import load_dataset
from .evaluate import (
    CalibrationReport,
    ConditionalSingletonMetrics,
    EvaluationReport,
    MetricPanel,
    calibration_report,
    evaluate_predictions,
)
from .icp import (
    Prediction,
    SplitConfig,
    build_calibration_table,
    predict_set,
    split_dataset,
)
from .nonconformity import MeasureSpec, TrainingBag, score_dataset
from .online import OnlineRound, run_online

REPORT_FORMATS = ("json", "csv", "text")

_ABSENT_TEXT = "—"


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
    """One batch run: where the data lives and how to score and calibrate it."""

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
    smoothed: bool = False
    smoothing_seed: int | None = None
    schema: str = "auto"


@dataclass(frozen=True)
class PipelineResult:
    document: dict
    predictions: dict[float, list[Prediction]]
    test: Dataset | None


def _validate_config(config: RunConfig) -> None:
    if (config.train_path is None) == (config.calibration_path is None):
        raise ValueError("exactly one of train_path and calibration_path is required")
    if config.train_path is not None and config.proper_path is not None:
        raise ValueError("proper_path only applies when calibration_path is given")
    if config.train_path is not None and config.split is None:
        raise ValueError("train_path requires a split configuration")
    if config.calibration_path is not None and config.split is not None:
        raise ValueError("split configuration only applies to train_path")
    if not config.epsilons:
        raise ValueError("at least one epsilon is required")
    for value in config.epsilons:
        SignificanceLevel(value)
    if config.smoothed and config.smoothing_seed is None:
        raise ValueError("smoothed p-values need smoothing_seed")
    if not (math.isfinite(config.threshold) and 0.0 <= config.threshold <= 1.0):
        raise ValueError(f"threshold must be in [0, 1], got {config.threshold}")
    if config.measure.needs_bag:
        if config.calibration_path is not None and config.proper_path is None:
            raise ValueError(
                f"measure {config.measure.kind!r} needs proper_path when "
                "calibration_path is given"
            )


def _calibration_block(calibration: Dataset, threshold: float) -> dict:
    if all(s.scores is not None and s.scores.probability for s in calibration):
        summary = calibration_report(calibration, threshold)
        return {
            "accuracy": float(summary.accuracy),
            "auroc": float(summary.auroc),
            "n": int(summary.n),
        }
    # Non-probability scores have no meaningful threshold, so only the size
    # is reported.
    return {"accuracy": None, "auroc": None, "n": len(calibration)}


def _opt(value: float | None) -> float | None:
    return None if value is None else float(value)


def _panel_block(panel: MetricPanel) -> dict:
    return {
        "accuracy": _opt(panel.accuracy),
        "sensitivity": _opt(panel.sensitivity),
        "specificity": _opt(panel.specificity),
        "auroc": _opt(panel.auroc),
    }


def _singleton_block(metrics: ConditionalSingletonMetrics) -> dict:
    return {
        "accuracy": _opt(metrics.accuracy),
        "sensitivity": _opt(metrics.sensitivity),
        "specificity": _opt(metrics.specificity),
        "auroc": _opt(metrics.auroc),
        "n_singleton": int(metrics.n_singleton),
        "false_positives_in_singletons": int(metrics.false_positives_in_singletons),
    }


def _result_row(report: EvaluationReport) -> dict:
    return {
        "epsilon": float(report.epsilon),
        "confidence_percent": SignificanceLevel(report.epsilon).confidence_percent,
        "n": int(report.n),
        "validity": float(report.validity),
        "efficiency": float(report.efficiency),
        "distribution": {
            "correct_single": float(report.distribution.frac_correct_single),
            "false_single": float(report.distribution.frac_false_single),
            "both": float(report.distribution.frac_both),
            "empty": float(report.distribution.frac_empty),
        },
        "scored_accuracy": {
            "both_correct": float(report.scored_accuracy_both_correct),
            "both_wrong": float(report.scored_accuracy_both_wrong),
        },
        "binary": _panel_block(report.binary),
        "singleton_conditional": _singleton_block(report.singleton_conditional),
    }


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
        "smoothed": bool(config.smoothed),
        "smoothing_seed": config.smoothing_seed,
        "split": split,
        "epsilons": [float(e) for e in config.epsilons],
    }


def run_pipeline(config: RunConfig) -> PipelineResult:
    """Run every stage the configuration asks for and assemble the report document."""
    with _stage("config"):
        _validate_config(config)

    with _stage("load"):
        proper = test = None
        if config.train_path is not None:
            train = load_dataset(config.train_path, config.positive_class, config.schema)
        else:
            calibration = load_dataset(
                config.calibration_path, config.positive_class, config.schema
            )
            if config.proper_path is not None:
                proper = load_dataset(
                    config.proper_path, config.positive_class, config.schema
                )
        if config.test_path is not None:
            test = load_dataset(config.test_path, config.positive_class, config.schema)

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
        calibration_block = _calibration_block(calibration, config.threshold)

    predictions: dict[float, list[Prediction]] = {}
    results: list[dict] = []
    seen: set[float] = set()
    for value in config.epsilons:
        if value in seen:
            continue
        seen.add(value)
        eps = SignificanceLevel(value)
        if test is None:
            continue
        # A fresh generator per epsilon gives every level the same tie draws,
        # so smoothed regions nest across epsilon as the plain ones do.
        rng = (
            np.random.default_rng(config.smoothing_seed) if config.smoothed else None
        )
        with _stage("predict"):
            preds = predict_set(table, test, eps, smoothed=config.smoothed, rng=rng)
        predictions[value] = preds
        if test.fully_labelled():
            with _stage("evaluate"):
                report = evaluate_predictions(
                    regions=[p.region for p in preds],
                    scores=[s.scores for s in test],
                    truths=[s.true_label for s in test],
                    threshold=config.threshold,
                    epsilon=value,
                )
            results.append(_result_row(report))

    document = {
        "config": _config_block(config),
        "calibration": calibration_block,
        "n_test": None if test is None else len(test),
        "results": results,
    }
    return PipelineResult(document, predictions, test)


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
        initial = TrainingBag.from_dataset(
            Dataset(data.samples[: config.initial_size], data.feature_dim)
        )
        stream = [
            (s.features, s.true_label) for s in data.samples[config.initial_size :]
        ]
        return run_online(initial, stream, eps, config.k)


REPORT_CSV_COLUMNS = (
    "epsilon",
    "confidence_percent",
    "n",
    "validity",
    "efficiency",
    "frac_correct_single",
    "frac_false_single",
    "frac_both",
    "frac_empty",
    "scored_accuracy_both_correct",
    "scored_accuracy_both_wrong",
    "binary_accuracy",
    "binary_sensitivity",
    "binary_specificity",
    "binary_auroc",
    "singleton_accuracy",
    "singleton_sensitivity",
    "singleton_specificity",
    "singleton_auroc",
    "n_singleton",
    "false_positives_in_singletons",
    "calibration_accuracy",
    "calibration_auroc",
    "calibration_n",
)


def _cell(value) -> str:
    if value is None:
        return ""
    if isinstance(value, bool):
        return str(value).lower()
    if isinstance(value, float):
        return repr(value)
    return str(value)


def _flat_rows(document: dict) -> list[dict]:
    calibration = document.get("calibration", {})
    shared = {
        "calibration_accuracy": calibration.get("accuracy"),
        "calibration_auroc": calibration.get("auroc"),
        "calibration_n": calibration.get("n"),
    }
    results = document.get("results", [])
    if not results:
        return [dict.fromkeys(REPORT_CSV_COLUMNS) | shared]
    rows = []
    for result in results:
        dist = result["distribution"]
        scored = result["scored_accuracy"]
        binary = result["binary"]
        singleton = result["singleton_conditional"]
        rows.append(
            {
                "epsilon": result["epsilon"],
                "confidence_percent": result["confidence_percent"],
                "n": result["n"],
                "validity": result["validity"],
                "efficiency": result["efficiency"],
                "frac_correct_single": dist["correct_single"],
                "frac_false_single": dist["false_single"],
                "frac_both": dist["both"],
                "frac_empty": dist["empty"],
                "scored_accuracy_both_correct": scored["both_correct"],
                "scored_accuracy_both_wrong": scored["both_wrong"],
                "binary_accuracy": binary["accuracy"],
                "binary_sensitivity": binary["sensitivity"],
                "binary_specificity": binary["specificity"],
                "binary_auroc": binary["auroc"],
                "singleton_accuracy": singleton["accuracy"],
                "singleton_sensitivity": singleton["sensitivity"],
                "singleton_specificity": singleton["specificity"],
                "singleton_auroc": singleton["auroc"],
                "n_singleton": singleton["n_singleton"],
                "false_positives_in_singletons": singleton[
                    "false_positives_in_singletons"
                ],
            }
            | shared
        )
    return rows


def _text_value(value) -> str:
    if value is None:
        return _ABSENT_TEXT
    if isinstance(value, float):
        return f"{value:.4f}"
    return str(value)


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
    lines.append(
        "calibration  n={}  accuracy={}  auroc={}".format(
            _text_value(calibration.get("n")),
            _text_value(calibration.get("accuracy")),
            _text_value(calibration.get("auroc")),
        )
    )
    for result in document.get("results", []):
        dist = result["distribution"]
        scored = result["scored_accuracy"]
        binary = result["binary"]
        singleton = result["singleton_conditional"]
        lines.append("")
        lines.append(
            "epsilon={}  confidence={}%  n={}".format(
                result["epsilon"], result["confidence_percent"], result["n"]
            )
        )
        lines.append(
            "  validity={}  efficiency={}".format(
                _text_value(result["validity"]), _text_value(result["efficiency"])
            )
        )
        lines.append(
            "  regions  correct_single={}  false_single={}  both={}  empty={}".format(
                _text_value(dist["correct_single"]),
                _text_value(dist["false_single"]),
                _text_value(dist["both"]),
                _text_value(dist["empty"]),
            )
        )
        lines.append(
            "  scored_accuracy  both_correct={}  both_wrong={}".format(
                _text_value(scored["both_correct"]),
                _text_value(scored["both_wrong"]),
            )
        )
        lines.append(
            "  binary  accuracy={}  sensitivity={}  specificity={}  auroc={}".format(
                _text_value(binary["accuracy"]),
                _text_value(binary["sensitivity"]),
                _text_value(binary["specificity"]),
                _text_value(binary["auroc"]),
            )
        )
        lines.append(
            "  singleton  accuracy={}  sensitivity={}  specificity={}  auroc={}"
            "  n_singleton={}  false_positives={}".format(
                _text_value(singleton["accuracy"]),
                _text_value(singleton["sensitivity"]),
                _text_value(singleton["specificity"]),
                _text_value(singleton["auroc"]),
                singleton["n_singleton"],
                singleton["false_positives_in_singletons"],
            )
        )
    return "\n".join(lines) + "\n"


def emit_report(document: dict, fmt: str) -> bytes:
    """Render a report document; json is canonical and emit(parse(x)) == x."""
    if fmt not in REPORT_FORMATS:
        raise ValueError(f"format must be one of {REPORT_FORMATS}, got {fmt!r}")
    if fmt == "json":
        text = json.dumps(document, sort_keys=True, indent=2, allow_nan=False) + "\n"
    elif fmt == "csv":
        buffer = io.StringIO()
        writer = csv.writer(buffer, lineterminator="\n")
        writer.writerow(REPORT_CSV_COLUMNS)
        for row in _flat_rows(document):
            writer.writerow([_cell(row[column]) for column in REPORT_CSV_COLUMNS])
        text = buffer.getvalue()
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
    return document


def regions_csv(result: PipelineResult) -> bytes:
    """Per-sample regions for every requested epsilon, in input order."""
    buffer = io.StringIO()
    writer = csv.writer(buffer, lineterminator="\n")
    writer.writerow(["epsilon", "id", "true_label", "p_pos", "p_neg", "region"])
    truths: dict[str, Label | None] = {}
    if result.test is not None:
        truths = {s.id: s.true_label for s in result.test}
    for value, preds in result.predictions.items():
        for pred in preds:
            truth = truths.get(pred.sample_id)
            writer.writerow(
                [
                    repr(float(value)),
                    pred.sample_id,
                    str(truth) if truth is not None else "",
                    repr(pred.p.p_pos),
                    repr(pred.p.p_neg),
                    str(pred.region),
                ]
            )
    return buffer.getvalue().encode("utf-8")


def trajectory_csv(rounds: list[OnlineRound]) -> bytes:
    """One row per on-line round."""
    buffer = io.StringIO()
    writer = csv.writer(buffer, lineterminator="\n")
    writer.writerow(["round", "region", "true_label", "cumulative_error_rate"])
    for item in rounds:
        writer.writerow(
            [
                item.round_index,
                str(item.region),
                str(item.true_label),
                repr(item.cumulative_error_rate),
            ]
        )
    return buffer.getvalue().encode("utf-8")

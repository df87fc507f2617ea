"""End-to-end runs: load, split, score, calibrate, predict and evaluate.

Every run is a pure function of its input files and configuration; reports
carry no timestamps or environment details, so rerunning a configuration
reproduces the output byte for byte.  Data moves between the stages as
`Dataset` columns.  This module runs the stages and assembles the report
document from their blocks; `report` owns the format: the config block, the
field tables, the renderers and the CSV writers.
"""

from __future__ import annotations

from contextlib import contextmanager
from dataclasses import dataclass
from pathlib import Path

import numpy as np

from . import report
from .core import _LABELS, Dataset, SignificanceLevel
from .data import load_dataset
from .evaluate import (
    _THRESHOLD,
    _check_threshold,
    binary_report,
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


class PipelineError(ValueError):
    """A pipeline stage failed; the message names the stage."""


@contextmanager
def _stage(name: str):
    try:
        yield
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
    threshold: float = _THRESHOLD
    train_path: Path | None = None
    calibration_path: Path | None = None
    proper_path: Path | None = None
    test_path: Path | None = None
    split: SplitConfig | None = None
    smoothing_seed: int | None = None


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
    if config.smoothing_seed is not None and config.smoothing_seed < 0:
        raise ValueError(f"smoothing_seed must be >= 0, got {config.smoothing_seed}")
    if config.measure.needs_bag:
        if config.calibration_path is not None and config.proper_path is None:
            raise ValueError(
                f"measure {config.measure.kind!r} needs proper_path when "
                "calibration_path is given"
            )


def run_pipeline(config: RunConfig) -> PipelineResult:
    """Run every stage the configuration asks for and assemble the report document."""
    with _stage("config"):
        _validate_config(config)

    with _stage("load"):
        # Class names are checked across the files of the run: a typo in a
        # file holding one class would otherwise read as the negative class.
        class_names: set[str] = set()

        def load(path: Path) -> Dataset:
            return load_dataset(path, config.positive_class, class_names=class_names)

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
        calibration_block = calibration_report(calibration, config.threshold)

    p_values = None
    regions: dict[float, np.ndarray] = {}
    results: list[dict] = []
    if test is not None:
        rng = None
        if config.smoothing_seed is not None:
            rng = np.random.default_rng(config.smoothing_seed)
        with _stage("predict"):
            p_values = predict_set(table, test, rng=rng)
        labelled = test.fully_labelled()
        if labelled:
            with _stage("evaluate"):
                binary = binary_report(test, config.threshold)
        for value in dict.fromkeys(config.epsilons):
            level = SignificanceLevel(value)
            regions[value] = region(*p_values, level)
            if labelled:
                with _stage("evaluate"):
                    blocks = evaluate_predictions(
                        regions=regions[value], s_pos=test.scores[:, 0], positive=test.positive
                    )
                results.append({
                    "epsilon": float(value),
                    "confidence_percent": float(level.confidence_percent),
                    **blocks,
                    "binary": dict(binary),
                })

    document = {
        "config": report._config_block(config),
        "calibration": calibration_block,
        "n_test": None if test is None else len(test),
        "results": results,
    }
    return PipelineResult(document, p_values, regions, test)


def simulate_online(
    data_path: Path, positive_class: str, epsilon: float, initial_size: int = 10,
    k: int = MeasureSpec.k,
) -> list[OnlineRound]:
    """Seed the bag with the first `initial_size` rows of the file and stream the rest."""
    with _stage("config"):
        MeasureSpec("knn_ratio", k)
        eps = SignificanceLevel(epsilon)
        if initial_size < 1:
            raise ValueError(f"initial_size must be >= 1, got {initial_size}")
    with _stage("load"):
        data = load_dataset(data_path, positive_class)
        if not data.fully_labelled():
            raise ValueError("on-line simulation requires labelled samples")
        if initial_size >= len(data):
            raise ValueError(
                f"initial_size {initial_size} leaves no stream (dataset has {len(data)} rows)"
            )
    with _stage("simulate"):
        initial = TrainingBag.from_dataset(data.take(slice(initial_size)))
        rest = data.take(slice(initial_size, None))
        labels = [_LABELS[code] for code in rest.labels.tolist()]
        return run_online(initial, zip(rest.features, labels), eps, k)

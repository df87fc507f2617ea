"""Set-valued binary classification with calibrated per-class error rates."""

from .core import (
    Dataset,
    Label,
    PredictionRegion,
    Sample,
    SignificanceLevel,
)
from .data import DataFormatError, SyntheticSpec, generate_synthetic, load_dataset
from .evaluate import (
    auroc,
    calibration_report,
    efficiency,
    region_distribution,
    scored_accuracy,
    validity,
)
from .icp import (
    CalibrationTable,
    SplitConfig,
    build_calibration_table,
    p_values,
    predict_set,
    region,
    split_dataset,
)
from .nonconformity import MeasureSpec, TrainingBag, score_dataset
from .online import full_cp_pvalue, run_online
from .pipeline import RunConfig, run_pipeline, simulate_online
from .report import emit_report

__version__ = "0.1.0"

__all__ = [
    "CalibrationTable",
    "DataFormatError",
    "Dataset",
    "Label",
    "MeasureSpec",
    "PredictionRegion",
    "RunConfig",
    "Sample",
    "SignificanceLevel",
    "SplitConfig",
    "SyntheticSpec",
    "TrainingBag",
    "auroc",
    "build_calibration_table",
    "calibration_report",
    "efficiency",
    "emit_report",
    "full_cp_pvalue",
    "generate_synthetic",
    "load_dataset",
    "p_values",
    "predict_set",
    "region",
    "region_distribution",
    "run_online",
    "run_pipeline",
    "score_dataset",
    "scored_accuracy",
    "simulate_online",
    "split_dataset",
    "validity",
]

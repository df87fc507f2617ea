"""Set-valued binary classification with calibrated per-class error rates."""

from .core import (
    Dataset,
    Label,
    PredictionRegion,
    Sample,
    ScorePair,
    SignificanceLevel,
)
from .data import DataFormatError, SyntheticSpec, generate_synthetic, load_dataset
from .evaluate import (
    auroc,
    binary_metrics,
    calibration_report,
    conditional_singleton_metrics,
    efficiency,
    region_distribution,
    scored_accuracy,
    validity,
)
from .icp import (
    CalibrationTable,
    PValuePair,
    SplitConfig,
    build_calibration_table,
    p_values,
    predict_set,
    region,
    split_dataset,
)
from .nonconformity import (
    MeasureSpec,
    NonconformityValue,
    TrainingBag,
    knn_distance_ratio,
    knn_probability_scores,
    score_dataset,
)
from .online import OnlineState, full_cp_pvalue, online_round, run_online
from .pipeline import OnlineConfig, RunConfig, emit_report, run_pipeline, simulate_online

__version__ = "0.1.0"

__all__ = [
    "CalibrationTable",
    "DataFormatError",
    "Dataset",
    "Label",
    "MeasureSpec",
    "NonconformityValue",
    "OnlineConfig",
    "OnlineState",
    "PValuePair",
    "PredictionRegion",
    "RunConfig",
    "Sample",
    "ScorePair",
    "SignificanceLevel",
    "SplitConfig",
    "SyntheticSpec",
    "TrainingBag",
    "auroc",
    "binary_metrics",
    "build_calibration_table",
    "calibration_report",
    "conditional_singleton_metrics",
    "efficiency",
    "emit_report",
    "full_cp_pvalue",
    "generate_synthetic",
    "knn_distance_ratio",
    "knn_probability_scores",
    "load_dataset",
    "online_round",
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

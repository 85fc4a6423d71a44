"""fairsift: fairness metrics, redundancy clustering, and sensitivity analysis."""

from .datamodel import (
    ConfigError,
    DataError,
    DatasetSpec,
    EncodedDataset,
    encode_dataset,
)
from .harness import (
    CvPlan,
    ExperimentConfig,
    MetricSampleMatrix,
    make_cv_plan,
    read_results_csv,
    run_experiment,
    write_results_csv,
)
from .metrics import (
    METRIC_CATALOG,
    MetricDef,
    compute_classification_metrics,
    compute_dataset_metrics,
    confusion_counts,
    label_fair,
)
from .models import (
    LogisticConfig,
    LogisticModel,
    Mitigator,
    ReweighingMitigator,
    reweigh,
    train_logistic,
)
from .report import AnalysisConfig, build_analysis

__version__ = "0.1.0"

__all__ = [
    "AnalysisConfig",
    "ConfigError",
    "CvPlan",
    "DataError",
    "DatasetSpec",
    "EncodedDataset",
    "ExperimentConfig",
    "LogisticConfig",
    "LogisticModel",
    "METRIC_CATALOG",
    "MetricDef",
    "MetricSampleMatrix",
    "Mitigator",
    "ReweighingMitigator",
    "build_analysis",
    "compute_classification_metrics",
    "compute_dataset_metrics",
    "confusion_counts",
    "encode_dataset",
    "label_fair",
    "make_cv_plan",
    "read_results_csv",
    "reweigh",
    "run_experiment",
    "train_logistic",
    "write_results_csv",
    "__version__",
]

"""riskminer: socioeconomic cyber-risk analytics.

Ingests (or generates) integer-coded questionnaire datasets, grows them with
categorical SMOTE, ranks features with the chi-squared independence test,
searches feature subsets by backward elimination over six native classifiers,
reports full classification metrics with ROC/AUC, and mines high-confidence
victim association rules with Apriori.
"""

from .chisq import ChiSqResult, chi_squared_test, contingency, rank_features
from .classifiers import ClassifierSpec, Model, predict, score, train
from .dataset import Dataset, SplitBundle, load_dataset, split_dataset, write_csv
from .elimination import backward_eliminate
from .generate import GenSpec, PlantedFactor, PlantedRule, generate_synthetic
from .metrics import (
    ConfusionMatrix,
    MetricsReport,
    RocCurve,
    auc,
    classification_metrics,
    confusion,
    roc_auc,
    roc_points,
)
from .mining import (
    FactorMap,
    Rule,
    apriori,
    default_factor_map,
    derive_rules,
    dissolve_dataset,
    rule_metrics,
)
from .pipeline import PipelineConfig, PipelineReport, emit_report, run_pipeline
from .schema import FeatureSpec, Schema, default_schema, load_schema, save_schema
from .smote import knn_categorical, resolve_targets, smote_n

__version__ = "0.1.0"

__all__ = [
    "ChiSqResult",
    "ClassifierSpec",
    "ConfusionMatrix",
    "Dataset",
    "FactorMap",
    "FeatureSpec",
    "GenSpec",
    "MetricsReport",
    "Model",
    "PipelineConfig",
    "PipelineReport",
    "PlantedFactor",
    "PlantedRule",
    "RocCurve",
    "Rule",
    "Schema",
    "SplitBundle",
    "apriori",
    "auc",
    "backward_eliminate",
    "chi_squared_test",
    "classification_metrics",
    "confusion",
    "contingency",
    "default_factor_map",
    "default_schema",
    "derive_rules",
    "dissolve_dataset",
    "emit_report",
    "generate_synthetic",
    "knn_categorical",
    "load_dataset",
    "load_schema",
    "predict",
    "rank_features",
    "resolve_targets",
    "roc_auc",
    "roc_points",
    "rule_metrics",
    "run_pipeline",
    "save_schema",
    "score",
    "smote_n",
    "split_dataset",
    "train",
    "write_csv",
]

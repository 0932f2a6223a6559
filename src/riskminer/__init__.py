"""riskminer: socioeconomic cyber-risk analytics.

Ingests (or generates) integer-coded questionnaire datasets, grows them with
categorical SMOTE, ranks features with the chi-squared independence test,
searches feature subsets by backward elimination over six native classifiers,
reports full classification metrics with ROC/AUC, and mines high-confidence
victim association rules with Apriori.

Every export and submodule loads on first use (PEP 562), so ``import
riskminer`` loads nothing else, and the schema and the factor catalog load
without numpy.
"""

from importlib import import_module

__version__ = "0.1.0"

# export -> the submodule that defines it
_EXPORTS = {
    name: module
    for module, names in {
        "chisq": ("ChiSqResult", "chi_squared_test", "contingency", "rank_features"),
        "classifiers": ("ClassifierSpec", "Model", "predict", "score", "train"),
        "dataset": ("Dataset", "SplitBundle", "load_dataset", "split_dataset", "write_csv"),
        "elimination": ("backward_eliminate",),
        "generate": ("GenSpec", "PlantedFactor", "PlantedRule", "generate_synthetic"),
        "metrics": ("ConfusionMatrix", "MetricsReport", "RocCurve", "auc", "classification_metrics", "confusion",
                    "roc_auc", "roc_points"),
        "mining": ("Rule", "apriori", "derive_rules", "dissolve_dataset", "rule_metrics"),
        "pipeline": ("PipelineConfig", "PipelineReport", "emit_report", "run_pipeline"),
        "schema": ("FactorMap", "FeatureSpec", "Schema", "default_factor_map", "default_schema", "load_schema",
                   "save_schema"),
        "smote": ("knn_categorical", "resolve_targets", "smote_n"),
    }.items()
    for name in names
}

__all__ = sorted(_EXPORTS)


def __getattr__(name: str):
    """An export, imported from its submodule, or a submodule such as ``errors``."""
    if name in _EXPORTS:
        return getattr(import_module(f".{_EXPORTS[name]}", __name__), name)
    if name.isidentifier():
        try:
            return import_module(f".{name}", __name__)
        except ModuleNotFoundError as exc:
            if exc.name != f"{__name__}.{name}":
                raise
    raise AttributeError(f"module {__name__!r} has no attribute {name!r}")


def __dir__() -> list[str]:
    return sorted({*globals(), *__all__})

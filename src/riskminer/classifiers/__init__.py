"""Six binary classifiers behind one train/predict/score surface.

Kinds: RF (random forest), DT (decision tree), LR (logistic regression),
SVC (polynomial-kernel support vector classifier), GB (gradient boosting),
GNB (Gaussian naive Bayes). Feature codes are consumed as real values by the
numeric learners and as categories by the tree learners. Every learner
exposes a victim-class score in [0, 1]; the predicted label is 1 exactly
when the score reaches 0.5, so an exact tie resolves to the victim class.

Fitted models are immutable and safe for concurrent prediction; training is
deterministic given (kind, hyperparameters, data, features).
"""

from __future__ import annotations

import inspect
import json
from dataclasses import dataclass, field

import numpy as np

from ..dataset import Dataset
from ..errors import ConfigError, FeatureMismatchError
from .bayes import GaussianNBLearner
from .boosting import GradientBoostingLearner
from .forest import DecisionTreeLearner, RandomForestLearner
from .linear import LogisticLearner
from .svm import PolySVCLearner
from .tree import SplitChoice, best_split, gini

__all__ = [
    "KINDS",
    "ClassifierSpec",
    "Model",
    "train",
    "predict",
    "score",
    "score_rows",
    "predict_rows",
    "design_matrix",
    "save_model",
    "load_model",
    "model_to_dict",
    "model_from_dict",
    "gini",
    "best_split",
    "SplitChoice",
]

KINDS = ("RF", "DT", "LR", "SVC", "GB", "GNB")

DEFAULT_HYPERPARAMETERS: dict[str, dict] = {
    "RF": {"n_estimators": 10, "criterion": "gini", "min_samples_split": 2, "seed": 42},
    "DT": {"criterion": "gini", "splitter": "best", "min_samples_split": 2, "seed": 22},
    "LR": {"penalty": "l2", "C": 1.0, "max_iter": 1000, "tol": 1e-6, "seed": 22},
    "SVC": {
        "kernel": "poly",
        "degree": 3,
        "coef0": 0.0,
        "gamma": "scale",
        "C": 1.0,
        "tol": 1e-3,
        "max_passes": 10_000,
        "seed": 42,
    },
    "GB": {
        "learning_rate": 0.1,
        "n_estimators": 100,
        "max_depth": 3,
        "criterion": "friedman-mse",
        "seed": 42,
    },
    "GNB": {"var_smoothing": 1e-9, "priors": None, "seed": 42},
}


@dataclass(frozen=True)
class ClassifierSpec:
    kind: str
    hyperparameters: dict = field(default_factory=dict)
    seed: int | None = None

    def __post_init__(self):
        if self.kind not in KINDS:
            raise ConfigError(f"unknown classifier kind {self.kind!r}")
        unknown = set(self.hyperparameters) - set(DEFAULT_HYPERPARAMETERS[self.kind])
        if unknown:
            raise ConfigError(f"{self.kind}: unknown hyperparameters {sorted(unknown)}")

    def resolved(self) -> dict:
        merged = dict(DEFAULT_HYPERPARAMETERS[self.kind])
        merged.update(self.hyperparameters)
        if self.seed is not None:
            merged["seed"] = self.seed
        return merged


@dataclass(frozen=True)
class Model:
    kind: str
    hyperparameters: dict
    features: tuple[str, ...]
    impl: object
    warnings: tuple[str, ...] = ()


def design_matrix(ds: Dataset, features) -> tuple[np.ndarray, np.ndarray]:
    """Project *ds* onto *features* as a float matrix plus a label vector."""
    cols = [ds.schema.index_of(name) for name in features]
    return ds.codes[:, cols].astype(np.float64), ds.y


_LEARNERS = {
    "RF": RandomForestLearner,
    "DT": DecisionTreeLearner,
    "LR": LogisticLearner,
    "SVC": PolySVCLearner,
    "GB": GradientBoostingLearner,
    "GNB": GaussianNBLearner,
}


def _build_learner(kind: str, hyper: dict):
    """An unfitted learner of *kind*, given the hyperparameters its constructor names."""
    learner = _LEARNERS[kind]
    return learner(**{k: v for k, v in hyper.items() if k in inspect.signature(learner).parameters})


def train(spec: ClassifierSpec, ds: Dataset, features=None) -> Model:
    """Fit one classifier on *ds* restricted to *features* (default: all)."""
    if len(ds) == 0:
        raise ConfigError("cannot train on an empty dataset")
    feats = tuple(features) if features is not None else ds.schema.feature_names
    hyper = spec.resolved()
    X, y = design_matrix(ds, feats)
    learner = _build_learner(spec.kind, hyper)
    learner.fit(X, y)
    warnings = []
    if getattr(learner, "converged", True) is False:
        warnings.append(f"{spec.kind}: iteration cap reached before convergence")
    return Model(
        kind=spec.kind,
        hyperparameters=hyper,
        features=feats,
        impl=learner,
        warnings=tuple(warnings),
    )


def _as_matrix(model: Model, record) -> np.ndarray:
    row = np.asarray(record, dtype=np.float64)
    if row.ndim != 1 or row.shape[0] != len(model.features):
        raise FeatureMismatchError(len(model.features), row.shape[-1])
    return row.reshape(1, -1)


def score(model: Model, record) -> float:
    """Victim-class score in [0, 1] for one record over the fitted features."""
    return float(model.impl.score_rows(_as_matrix(model, record))[0])


def predict(model: Model, record) -> int:
    """Predicted label; a score of exactly 0.5 resolves to the victim class."""
    return 1 if score(model, record) >= 0.5 else 0


def score_rows(model: Model, X: np.ndarray) -> np.ndarray:
    if X.shape[1] != len(model.features):
        raise FeatureMismatchError(len(model.features), X.shape[1])
    return model.impl.score_rows(np.asarray(X, dtype=np.float64))


def predict_rows(model: Model, X: np.ndarray) -> np.ndarray:
    return (score_rows(model, X) >= 0.5).astype(np.int64)


FORMAT_VERSION = 1


def model_to_dict(model: Model) -> dict:
    return {
        "format_version": FORMAT_VERSION,
        "kind": model.kind,
        "hyperparameters": model.hyperparameters,
        "features": list(model.features),
        "warnings": list(model.warnings),
        "params": model.impl.to_params(),
    }


def model_from_dict(doc: dict) -> Model:
    if doc.get("format_version") != FORMAT_VERSION:
        raise ConfigError(f"unsupported model format {doc.get('format_version')!r}")
    kind = doc["kind"]
    if kind not in _LEARNERS:
        raise ConfigError(f"unknown classifier kind {kind!r}")
    impl = _build_learner(kind, doc["hyperparameters"])
    impl.load_params(doc["params"])
    return Model(
        kind=kind,
        hyperparameters=doc["hyperparameters"],
        features=tuple(doc["features"]),
        impl=impl,
        warnings=tuple(doc.get("warnings", ())),
    )


def save_model(model: Model, path) -> None:
    with open(path, "w", encoding="utf-8") as fh:
        json.dump(model_to_dict(model), fh, sort_keys=True, indent=2)
        fh.write("\n")


def load_model(path) -> Model:
    with open(path, encoding="utf-8") as fh:
        return model_from_dict(json.load(fh))

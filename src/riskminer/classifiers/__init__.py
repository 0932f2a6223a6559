"""Six binary classifiers behind one train/predict/score surface.

Kinds: RF (random forest), DT (decision tree), LR (logistic regression),
SVC (polynomial-kernel support vector classifier), GB (gradient boosting),
GNB (Gaussian naive Bayes). Feature codes are consumed as real values by the
numeric learners and as categories by the tree learners. Every learner
exposes a victim-class score in [0, 1]; the predicted label is 1 exactly
when the score reaches 0.5, so an exact tie resolves to the victim class.

Each learner's constructor is the one definition of its hyperparameters and
their defaults. A fitted learner's state is its ``params`` dict, which model
files store: ``fit`` computes it and ends in ``load_params(params,
n_features)``, the only code that sets fitted attributes and checks each
param's shape, so a model file meets the checks of a fresh fit. Fitted
models are immutable and safe for concurrent prediction; training is
deterministic given (kind, hyperparameters, data, features).
"""

from __future__ import annotations

import copy
import inspect
import json
from dataclasses import dataclass, field

import numpy as np

from ..dataset import Dataset
from ..errors import ConfigError, FeatureMismatchError
from ..files import read_json, write_text
from .bayes import GaussianNBLearner
from .boosting import GradientBoostingLearner
from .forest import DecisionTreeLearner, RandomForestLearner
from .linear import LogisticLearner
from .svm import PolySVCLearner

__all__ = [
    "KINDS",
    "ClassifierSpec",
    "defaults",
    "Model",
    "train",
    "train_many",
    "predict",
    "score",
    "score_rows",
    "design_matrix",
    "save_model",
    "load_model",
    "model_to_dict",
    "model_from_dict",
]

_LEARNERS = {
    "RF": RandomForestLearner,
    "DT": DecisionTreeLearner,
    "LR": LogisticLearner,
    "SVC": PolySVCLearner,
    "GB": GradientBoostingLearner,
    "GNB": GaussianNBLearner,
}
KINDS = tuple(_LEARNERS)


def defaults(kind: str) -> dict:
    """Every hyperparameter of *kind* with its default, read from the
    learner's constructor, the one place where both are defined."""
    if kind not in KINDS:
        raise ConfigError(f"unknown classifier kind {kind!r}")
    return {name: p.default for name, p in inspect.signature(_LEARNERS[kind]).parameters.items()}


@dataclass(frozen=True)
class ClassifierSpec:
    """A learner kind and the hyperparameters that differ from its defaults."""

    kind: str
    hyperparameters: dict = field(default_factory=dict)

    def __post_init__(self):
        known = defaults(self.kind)
        if not isinstance(self.hyperparameters, dict):
            raise ConfigError(f"{self.kind}: hyperparameters must be an object, got {self.hyperparameters!r}")
        unknown = set(self.hyperparameters) - set(known)
        if unknown:
            raise ConfigError(f"{self.kind}: unknown hyperparameters {sorted(unknown)}; it takes {sorted(known)}")
        try:
            _LEARNERS[self.kind](**self.hyperparameters)  # its constructor checks each value
        except ConfigError as exc:
            raise ConfigError(f"{self.kind}: {exc}") from None

    def resolved(self) -> dict:
        return {**defaults(self.kind), **self.hyperparameters}


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


def train(spec: ClassifierSpec, ds: Dataset, features=None) -> Model:
    """Fit one classifier on *ds* restricted to *features* (default: all)."""
    return train_many(spec, ds, [ds.schema.feature_names if features is None else features])[0]


def train_many(spec: ClassifierSpec, ds: Dataset, feature_sets) -> list[Model]:
    """The models that ``train`` fits on *ds* over each of *feature_sets*;
    GB fits the distinct sets of each size together, in lockstep."""
    if len(ds) == 0:
        raise ConfigError("cannot train on an empty dataset")
    sets, models = [tuple(f) for f in feature_sets], {}
    groups = ([list(dict.fromkeys(f for f in sets if len(f) == n)) for n in {len(f) for f in sets}]
              if spec.kind == "GB" else [[f] for f in sets])
    for group in groups:
        learners = [_LEARNERS[spec.kind](**spec.resolved()) for _ in group]
        if len(group) == 1:
            learners[0].fit(*design_matrix(ds, group[0]))
        else:
            union = sorted(set().union(*group), key=ds.schema.index_of)
            columns = [[union.index(name) for name in f] for f in group]
            for learner, params in zip(learners, learners[0].fit_sets(*design_matrix(ds, union), columns)):
                learner.load_params(params, len(columns[0]))
        for f, learner in zip(group, learners):
            capped = getattr(learner, "converged", True) is False
            warnings = (f"{spec.kind}: iteration cap reached before convergence",) * capped
            models[f] = Model(spec.kind, spec.resolved(), f, learner, warnings)
    return [models[f] for f in sets]


def score(model: Model, record) -> float:
    """Victim-class score in [0, 1] for one record over the fitted features."""
    row = np.asarray(record, dtype=np.float64)
    if row.ndim != 1:
        raise FeatureMismatchError(len(model.features), row.size)
    return float(score_rows(model, row[None])[0])


def predict(model: Model, record) -> int:
    """Predicted label; a score of exactly 0.5 resolves to the victim class."""
    return 1 if score(model, record) >= 0.5 else 0


def score_rows(model: Model, X: np.ndarray) -> np.ndarray:
    if X.shape[1] != len(model.features):
        raise FeatureMismatchError(len(model.features), X.shape[1])
    return model.impl.score_rows(np.asarray(X, dtype=np.float64))


FORMAT_VERSION = 3


def model_to_dict(model: Model) -> dict:
    """The model file document of *model*: a copy, so that editing it leaves *model* as it was."""
    return copy.deepcopy({
        "format_version": FORMAT_VERSION,
        "kind": model.kind,
        "hyperparameters": model.hyperparameters,
        "features": list(model.features),
        "warnings": list(model.warnings),
        "params": {key: v.tolist() if isinstance(v, np.ndarray) else v for key, v in model.impl.params.items()},
    })


def model_from_dict(doc) -> Model:
    """The model that *doc*, a ``model_to_dict`` document, describes; any
    other document raises ConfigError."""
    if not isinstance(doc, dict):
        raise ConfigError(f"a model document must be a JSON object, got {doc!r}")
    if doc.get("format_version") != FORMAT_VERSION:
        raise ConfigError(f"unsupported model format {doc.get('format_version')!r}, expected {FORMAT_VERSION}")
    warnings = doc.get("warnings", [])
    if not isinstance(warnings, list) or not all(isinstance(w, str) for w in warnings):
        raise ConfigError(f"model warnings must be a list of strings, got {warnings!r}")
    features = doc.get("features")
    if not (isinstance(features, list) and features and all(isinstance(f, str) for f in features)
            and len(set(features)) == len(features)):
        raise ConfigError(f"model features must be a non-empty list of distinct names, got {features!r}")
    try:
        spec = ClassifierSpec(doc["kind"], doc["hyperparameters"])
        impl = _LEARNERS[spec.kind](**spec.resolved())
        impl.load_params(copy.deepcopy(doc["params"]), len(features))  # the model keeps no list of *doc*
    except (KeyError, TypeError, ValueError, AttributeError, IndexError, OverflowError) as exc:
        raise ConfigError(f"malformed model document ({exc!r})") from None
    return Model(kind=spec.kind, hyperparameters=spec.resolved(), features=tuple(features), impl=impl,
                 warnings=tuple(warnings))


def save_model(model: Model, path) -> None:
    write_text(path, json.dumps(model_to_dict(model), sort_keys=True, indent=2) + "\n")


def load_model(path) -> Model:
    return model_from_dict(read_json(path, "model"))

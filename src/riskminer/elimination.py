"""Greedy backward elimination wrapper search, and ``validate``, the one scorer.

Each step trains every configured learner on every candidate set obtained by
dropping one active feature, scores it on the test split, and removes the
feature whose removal gives the highest best-learner accuracy (ties drop
the lowest-schema-index feature). Training is a pure function of (spec,
data, features), so candidate evaluations are order-independent and could
run in parallel without changing the trace. Each visited set keeps the
models it was scored with, so later stages can score them again instead of
re-training; the models of candidates that are not kept are dropped.
"""

from __future__ import annotations

from dataclasses import asdict, dataclass, field

from .classifiers import KINDS, design_matrix, score_rows, train
from .dataset import Dataset, SplitBundle
from .errors import ConfigError
from .metrics import auc, classification_metrics, confusion, oriented, roc_points


@dataclass(frozen=True)
class StepRecord:
    features: tuple[str, ...]  # active set, schema order
    accuracies: dict  # learner kind -> test accuracy
    aucs: dict  # learner kind -> test AUC (used only for tie-breaks downstream)
    removed: str | None  # feature removed to reach the next step
    models: dict = field(default_factory=dict, compare=False, repr=False)  # kind -> Model


def validate(model, ds: Dataset, positive: int) -> dict:
    """Score *model* on *ds*: its confusion matrix, metrics, ROC curve and AUC."""
    X, y = design_matrix(ds, model.features)
    scores = score_rows(model, X)
    cm = confusion(y, (scores >= 0.5).astype(int), positive)
    curve = roc_points(y, oriented(scores, positive), positive)
    return {"confusion": cm, "metrics": classification_metrics(cm), "curve": curve, "auc": auc(curve)}


def metrics_doc(entry: dict) -> dict:
    """The JSON form of a ``validate`` result's metrics."""
    report = entry["metrics"]
    return {
        "accuracy": report.accuracy,
        "weighted_f1": report.weighted_f1,
        "auc": entry["auc"],
        "flags": list(report.flags),
        "per_class": {str(label): asdict(m) for label, m in report.per_class.items()},
    }


def evaluate_learners(
    splits: SplitBundle,
    learners,
    features,
    positive: int = 0,
) -> tuple[dict, dict, dict]:
    """Train each learner on splits.train over *features*; return
    (accuracy, auc, model) maps keyed by learner kind, scored on splits.test."""
    accuracies, aucs, models = {}, {}, {}
    for spec in learners:
        model = train(spec, splits.train, features)
        entry = validate(model, splits.test, positive)
        accuracies[spec.kind] = entry["metrics"].accuracy
        aucs[spec.kind] = entry["auc"]
        models[spec.kind] = model
    return accuracies, aucs, models


def check_min_size(min_size: int) -> None:
    if min_size < 1:
        raise ConfigError(f"min_size must be >= 1, got {min_size}")


def backward_eliminate(
    splits: SplitBundle,
    learners,
    min_size: int,
    features=None,
    positive: int = 0,
) -> tuple[StepRecord, ...]:
    """Run the wrapper search from *features* (default: the full schema)
    down to *min_size* active features.

    Returns one step per visited active set, with the models trained on it;
    the last step has ``removed=None``. ``best_choice`` picks among them.
    """
    check_min_size(min_size)
    kinds = [spec.kind for spec in learners]
    if len(set(kinds)) != len(kinds):
        raise ConfigError("duplicate learner kinds in the elimination roster")
    schema = splits.train.schema
    if features is None:
        active = list(schema.feature_names)
    else:
        active = sorted(features, key=schema.index_of)

    accuracies, aucs, models = evaluate_learners(splits, learners, tuple(active), positive=positive)
    steps: list[StepRecord] = []
    while len(active) > min_size:
        best_removal = None  # (best-learner accuracy, -schema index) to maximize
        best_payload = None
        for feature in active:
            candidate = tuple(f for f in active if f != feature)
            cand_acc, cand_auc, cand_models = evaluate_learners(splits, learners, candidate, positive=positive)
            key = (max(cand_acc.values()), -schema.index_of(feature))
            if best_removal is None or key > best_removal:
                best_removal = key
                best_payload = (feature, candidate, cand_acc, cand_auc, cand_models)
        removed, next_active, next_acc, next_auc, next_models = best_payload
        steps.append(StepRecord(tuple(active), accuracies, aucs, removed, models))
        active = list(next_active)
        accuracies, aucs, models = next_acc, next_auc, next_models
    steps.append(StepRecord(tuple(active), accuracies, aucs, None, models))
    return tuple(steps)


def selection_key(step: StepRecord, kind: str) -> tuple:
    """The order in which (step, learner kind) pairs compete for selection:
    test accuracy, then AUC, then the earlier kind in KINDS, then the
    smaller feature set."""
    return (step.accuracies[kind], step.aucs[kind], -KINDS.index(kind), -len(step.features))


def best_choice(steps) -> tuple[StepRecord, str]:
    """The (step, learner kind) pair that ranks highest by ``selection_key``;
    a full tie goes to the earlier step."""
    return max(((step, kind) for step in steps for kind in step.accuracies), key=lambda pair: selection_key(*pair))

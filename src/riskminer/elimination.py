"""Greedy backward elimination wrapper search, and ``validate``, the one scorer.

Each step trains every configured learner on every candidate set obtained by
dropping one active feature, scores it on the test split, and removes the
feature whose removal gives the highest best-learner accuracy (ties drop
the lowest-schema-index feature). Each visited set keeps the models it was
scored with, so later stages can score them again instead of re-training;
the models of candidates that are not kept are dropped.

Training is a pure function of (spec, data, features), so the fits can run
in any order and in any process. The fits go out in batches: the first
holds every set known before step 1's decision (the start set, the
all-features baseline and step 1's candidates), each later one a step's
candidates. A batch is one list of tasks in (set, roster) order, fitted in
one pass; GB's sets of one size go out at the group's first set as one task
per worker, which ``train_many`` boosts in lockstep. A batch of more than
one fit runs in a pool of forked workers, one per usable CPU, which inherit
the splits and send back each (learner, set) pair's accuracy, AUC and
model. The first failing task raises (GB's one data error, a single class,
fails its whole group), so the steps, every report byte and the error do
not depend on the number of workers. The fits run in this process on one
usable CPU, where the ``fork`` start method is missing, and when a function
this module calls has been rebound since import, as a tracer or a test does
to watch the calls: a call made in a worker is recorded there, out of its
sight. A pooled batch forks its own workers and shuts them down before it
returns, also when a fit raises or a worker dies; ``multiprocessing`` is
imported when a batch first needs it.
"""

from __future__ import annotations

import os
from dataclasses import asdict, dataclass, field, replace
from types import FunctionType

from .classifiers import KINDS, design_matrix, score_rows, train, train_many
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


def _fit(spec, splits: SplitBundle, sets, positive: int) -> list:
    """Train *spec* on splits.train over each of *sets* (``train_many`` fits
    more than one together); each one's (test accuracy, test AUC, model)."""
    models = [train(spec, splits.train, sets[0])] if len(sets) == 1 else train_many(spec, splits.train, sets)
    entries = [validate(model, splits.test, positive) for model in models]
    return [(entry["metrics"].accuracy, entry["auc"], model) for entry, model in zip(entries, models)]


def evaluate_learners(
    splits: SplitBundle,
    learners,
    features,
    positive: int = 0,
) -> tuple[dict, dict, dict]:
    """Train each learner on splits.train over *features*; return
    (accuracy, auc, model) maps keyed by learner kind, scored on splits.test."""
    fits = {spec.kind: _fit(spec, splits, (features,), positive)[0] for spec in learners}
    return tuple({kind: fit[i] for kind, fit in fits.items()} for i in range(3))


def check_min_size(min_size: int) -> None:
    if min_size < 1:
        raise ConfigError(f"min_size must be >= 1, got {min_size}")


def _rebound() -> bool:
    """Whether a function of this module's namespace has been rebound since import."""
    return any(globals()[name] is not fn for name, fn in _AS_IMPORTED.items())


def worker_count(tasks: int) -> int:
    """The worker processes for a batch of *tasks* fits: one per usable CPU,
    at most *tasks*. 1, the fits in this process, where the ``fork`` start
    method is missing or a function this module calls has been rebound."""
    usable = len(os.sched_getaffinity(0)) if hasattr(os, "sched_getaffinity") else os.cpu_count() or 1
    count = min(usable, tasks)
    if count <= 1 or _rebound():
        return 1
    import multiprocessing

    return count if "fork" in multiprocessing.get_all_start_methods() else 1


_WORK = None  # a worker's (splits, specs by kind, positive), inherited through fork


def _adopt(work) -> None:
    global _WORK
    _WORK = work


def _fit_task(task):
    kind, sets = task
    splits, specs, positive = _WORK
    return _fit(specs[kind], splits, sets, positive)


def _batch(work, learners, sets) -> list[StepRecord]:
    """One ``StepRecord`` per set of *sets*, in order, with ``removed=None``:
    every learner of *learners* fitted on each set in one pass, in this
    process or in a pool of forked workers that inherit *work* (splits,
    specs by kind, positive) and are shut down before the batch returns."""
    workers = worker_count(len(sets) * len(learners))
    tasks = []  # (kind, sets) in (set, roster) order; a GB size group at its first set
    for i, features in enumerate(sets):
        for spec in learners:
            group = [j for j, f in enumerate(sets) if len(f) == len(features)] if spec.kind == "GB" else [i]
            for chunk in range(min(workers, len(group)) if group[0] == i else 0):
                tasks.append((spec.kind, tuple(sets[j] for j in group[chunk::workers])))
    if workers == 1:
        splits, specs, positive = work
        results = [_fit(specs[kind], splits, part, positive) for kind, part in tasks]
    else:
        import multiprocessing
        from concurrent.futures import ProcessPoolExecutor

        # forked, so the workers inherit the splits: only tasks and results are pickled
        pool = ProcessPoolExecutor(workers, multiprocessing.get_context("fork"), _adopt, (work,))
        try:
            # the first failing task's exception, or BrokenProcessPool when a worker dies, is raised as it is read
            results = list(pool.map(_fit_task, tasks))
        finally:
            pool.shutdown(cancel_futures=True)
    fitted = {(kind, f): fit for (kind, part), fits in zip(tasks, results) for f, fit in zip(part, fits)}
    records = []
    for f in sets:
        accuracies, aucs, models = ({spec.kind: fitted[spec.kind, f][i] for spec in learners} for i in range(3))
        records.append(StepRecord(f, accuracies, aucs, None, models))
    return records


def _candidates(active, min_size: int) -> list[tuple[str, ...]]:
    """The sets one step scores: *active* less one feature each, or none at *min_size*."""
    if len(active) <= min_size:
        return []
    return [tuple(f for f in active if f != feature) for feature in active]


def backward_eliminate(
    splits: SplitBundle,
    learners,
    min_size: int,
    features=None,
    positive: int = 0,
    baseline: bool = False,
) -> tuple[StepRecord, ...]:
    """Run the wrapper search from *features* (default: the full schema)
    down to *min_size* active features.

    Returns one step per visited active set, with the models trained on it;
    the last step has ``removed=None``. With *baseline*, the all-features
    set comes first, as a step with ``removed=None``; when it is the start
    set, its models are not trained again. ``best_choice`` picks among them.
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

    everything = schema.feature_names
    head = [tuple(active)] if not baseline or tuple(active) == everything else [tuple(active), everything]
    work = splits, {spec.kind: spec for spec in learners}, positive
    # the first batch: every set known before step 1's decision
    current, *batch = _batch(work, learners, head + _candidates(active, min_size))
    base = batch.pop(0) if len(head) > 1 else current
    steps = []
    while len(active) > min_size:
        # the highest best-learner accuracy; a tie drops the lowest-schema-index feature
        removed, kept = max(zip(active, batch), key=lambda c: (max(c[1].accuracies.values()), -schema.index_of(c[0])))
        steps.append(replace(current, removed=removed))
        active.remove(removed)
        current, batch = kept, None  # the other candidates' models go before the next batch is fitted
        batch = _batch(work, learners, _candidates(active, min_size))
    return (base, *steps, current) if baseline else (*steps, current)


def selection_key(step: StepRecord, kind: str) -> tuple:
    """The order in which (step, learner kind) pairs compete for selection:
    test accuracy, then AUC, then the earlier kind in KINDS, then the
    smaller feature set."""
    return (step.accuracies[kind], step.aucs[kind], -KINDS.index(kind), -len(step.features))


def best_choice(steps) -> tuple[StepRecord, str]:
    """The (step, learner kind) pair that ranks highest by ``selection_key``;
    a full tie goes to the earlier step."""
    return max(((step, kind) for step in steps for kind in step.accuracies), key=lambda pair: selection_key(*pair))


# this module's functions as imported: ``worker_count`` fits in this process once one is rebound
_AS_IMPORTED = {name: value for name, value in globals().items() if isinstance(value, FunctionType)}

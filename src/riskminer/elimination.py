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
candidates. A batch of more than one fit runs in a pool of forked worker
processes, one per usable CPU, which inherit the splits and send back each
(learner, set) pair's accuracy, AUC and model; GB's sets of one size go
out as one task per worker, which ``train_many`` boosts in lockstep. The
results are taken in (set, roster) order, the order of the fits in one
process, so the steps, every report byte and the error that a failing fit
raises (GB's one data error, a single class, fails its whole group) do not
depend on the number of workers. The fits run in this process on one
usable CPU, where the ``fork`` start method is missing, and when a function
this module calls has been rebound since import, as a tracer or a test does
to watch the calls: a call made in a worker is recorded there, out of its
sight. The pool lives for one ``backward_eliminate`` call:
``multiprocessing`` is imported when a batch first needs it, and the pool
is shut down when the call ends, also when a fit raises or a worker dies.
"""

from __future__ import annotations

import functools
import os
from dataclasses import asdict, dataclass, field
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


def _fit(spec, splits: SplitBundle, features, positive: int):
    """Train *spec* on splits.train over *features*; its (test accuracy, test AUC,
    model), or for a tuple of feature sets, which ``train_many`` fits together, a list."""
    one, results = isinstance(features[0], str), []
    for model in [train(spec, splits.train, features)] if one else train_many(spec, splits.train, features):
        entry = validate(model, splits.test, positive)
        results.append((entry["metrics"].accuracy, entry["auc"], model))
    return results[0] if one else results


def _maps(learners, results) -> tuple[dict, dict, dict]:
    """The (accuracy, AUC, model) maps keyed by learner kind of *results*,
    one ``_fit`` result per learner in roster order."""
    return tuple({spec.kind: result[i] for spec, result in zip(learners, results)} for i in range(3))


def evaluate_learners(
    splits: SplitBundle,
    learners,
    features,
    positive: int = 0,
) -> tuple[dict, dict, dict]:
    """Train each learner on splits.train over *features*; return
    (accuracy, auc, model) maps keyed by learner kind, scored on splits.test."""
    return _maps(learners, [_fit(spec, splits, features, positive) for spec in learners])


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


def _fit_task(task, work=None):
    kind, features = task
    splits, specs, positive = work or _WORK
    return _fit(specs[kind], splits, features, positive)


class _Fits:
    """Fits batches of feature sets: in this process, or in a pool of
    forked workers that the first batch with use for more than one starts.
    Used as a context manager, which shuts the pool down."""

    def __init__(self, splits: SplitBundle, learners, positive: int):
        self.learners = tuple(learners)
        self.work = splits, {spec.kind: spec for spec in learners}, positive
        self.pool = None

    def batch(self, sets):
        """The ``evaluate_learners`` maps of each of *sets*, in order, as
        each set's fits come in."""
        workers = worker_count(len(sets) * len(self.learners))
        tasks, owners = [], []  # in the order their results are first needed; each's (set, kind) pairs
        for i, features in enumerate(sets):
            for spec in self.learners:
                group = [j for j, f in enumerate(sets) if len(f) == len(features)] if spec.kind == "GB" else [i]
                for chunk in range(min(workers, len(group)) if group[0] == i else 0):
                    part = group[chunk::workers]
                    owners.append([(j, spec.kind) for j in part])
                    tasks.append((spec.kind, sets[part[0]] if len(part) == 1 else tuple(sets[j] for j in part)))
        if workers == 1:
            results = map(functools.partial(_fit_task, work=self.work), tasks)
        else:
            if self.pool is None:
                import multiprocessing
                from concurrent.futures import ProcessPoolExecutor

                # forked, so the workers inherit the splits: only tasks and results are pickled
                self.pool = ProcessPoolExecutor(workers, multiprocessing.get_context("fork"), _adopt, (self.work,))
            # a fit's exception, or BrokenProcessPool when a worker dies, is raised where its result would be
            results = self.pool.map(_fit_task, tasks)
        results, got = zip(owners, results), {}  # got: results in, not yet taken
        for i in range(len(sets)):  # taken in (set, roster) order, the order of one process's fits
            while any((i, spec.kind) not in got for spec in self.learners):
                pairs, result = next(results)
                got.update(zip(pairs, result) if len(pairs) > 1 else [(pairs[0], result)])
            yield _maps(self.learners, [got.pop((i, spec.kind)) for spec in self.learners])

    def __enter__(self):
        return self

    def __exit__(self, failure, *_):
        if self.pool is not None:
            self.pool.shutdown(cancel_futures=failure is not None)


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
    steps: list[StepRecord] = []
    with _Fits(splits, learners, positive) as fits:
        # the first batch: every set known before step 1's decision
        batch = fits.batch(head + _candidates(active, min_size))
        current = next(batch)
        base = next(batch) if len(head) > 1 else current
        while len(active) > min_size:
            best_removal = None  # (best-learner accuracy, -schema index) to maximize
            for feature, scores in zip(active, batch):
                key = (max(scores[0].values()), -schema.index_of(feature))
                if best_removal is None or key > best_removal:
                    best_removal, removed, kept = key, feature, scores  # only the best candidate's models
            steps.append(StepRecord(tuple(active), current[0], current[1], removed, current[2]))
            active.remove(removed)
            current = kept
            batch = fits.batch(_candidates(active, min_size))
    steps.append(StepRecord(tuple(active), current[0], current[1], None, current[2]))
    if baseline:
        steps.insert(0, StepRecord(everything, base[0], base[1], None, base[2]))
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


# this module's functions as imported: ``worker_count`` fits in this process once one is rebound
_AS_IMPORTED = {name: value for name, value in globals().items() if isinstance(value, FunctionType)}

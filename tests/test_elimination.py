"""Backward elimination wrapper search against an exhaustive-subset oracle."""

from __future__ import annotations

import random
from itertools import combinations

import pytest

from conftest import toy_dataset
from riskminer.classifiers import KINDS, ClassifierSpec, design_matrix, predict_rows, train
from riskminer.dataset import split_dataset
from riskminer.elimination import backward_eliminate, evaluate_learners
from riskminer.errors import ConfigError
from riskminer.pipeline import config_from_dict, run_pipeline

FAST_LEARNERS = (ClassifierSpec("DT"), ClassifierSpec("GNB"))


def _signal_noise_dataset(n=160, seed=23):
    rng = random.Random(seed)
    records, labels = [], []
    for _ in range(n):
        label = rng.randint(0, 1)
        records.append([label, rng.randint(0, 1), rng.randint(0, 1)])
        labels.append(label)
    return toy_dataset(records, labels)


def _accuracy(splits, learners, features):
    X, y = design_matrix(splits.test, features)
    best = 0.0
    for spec in learners:
        model = train(spec, splits.train, features)
        best = max(best, float((predict_rows(model, X) == y).mean()))
    return best


def test_boundary_min_size_equals_feature_count():
    ds = _signal_noise_dataset()
    splits = split_dataset(ds, (0.6, 0.2, 0.2), seed=1)
    trace = backward_eliminate(splits, FAST_LEARNERS, min_size=3)
    assert len(trace.steps) == 1
    assert trace.steps[0].removed is None
    assert trace.steps[0].features == ("f0", "f1", "f2")
    assert trace.final_selection == ("f0", "f1", "f2")


def test_label_copy_feature_survives_and_oracle_agrees():
    ds = _signal_noise_dataset()
    splits = split_dataset(ds, (0.6, 0.2, 0.2), seed=2)
    trace = backward_eliminate(splits, FAST_LEARNERS, min_size=1)
    assert "f0" in trace.final_selection

    # exhaustive oracle over all 7 non-empty subsets: the greedy trace's
    # recorded accuracy for each visited set must match a fresh evaluation,
    # and the best visited set must contain the label copy
    for step in trace.steps:
        fresh = _accuracy(splits, FAST_LEARNERS, step.features)
        assert max(step.accuracies.values()) == pytest.approx(fresh)
    subset_scores = {}
    for r in (1, 2, 3):
        for combo in combinations(("f0", "f1", "f2"), r):
            subset_scores[combo] = _accuracy(splits, FAST_LEARNERS, combo)
    best_visited = max(
        (tuple(step.features) for step in trace.steps), key=lambda f: subset_scores[f]
    )
    assert subset_scores[trace.final_selection] == subset_scores[best_visited]


def test_trace_sets_strictly_nested_and_accuracies_bounded():
    ds = _signal_noise_dataset(seed=31)
    splits = split_dataset(ds, (0.6, 0.2, 0.2), seed=3)
    trace = backward_eliminate(splits, FAST_LEARNERS, min_size=1)
    sizes = [len(step.features) for step in trace.steps]
    assert sizes == [3, 2, 1]
    for earlier, later in zip(trace.steps, trace.steps[1:]):
        assert set(later.features) < set(earlier.features)
        assert earlier.removed in set(earlier.features) - set(later.features)
    assert trace.steps[-1].removed is None
    for step in trace.steps:
        for acc in step.accuracies.values():
            assert 0.0 <= acc <= 1.0
        for auc_value in step.aucs.values():
            assert 0.0 <= auc_value <= 1.0


def test_each_step_removes_argmax_removal():
    ds = _signal_noise_dataset(seed=37)
    splits = split_dataset(ds, (0.6, 0.2, 0.2), seed=4)
    trace = backward_eliminate(splits, FAST_LEARNERS, min_size=2)
    step = trace.steps[0]
    # recompute every candidate-removal score; the removed feature must be
    # one yielding the maximum, with ties toward the lower schema index
    scores = {}
    for feature in step.features:
        candidate = tuple(f for f in step.features if f != feature)
        scores[feature] = _accuracy(splits, FAST_LEARNERS, candidate)
    best = max(scores.values())
    tied = [f for f in step.features if scores[f] == best]
    assert step.removed == tied[0]


def test_min_size_validation_and_duplicate_kinds():
    ds = _signal_noise_dataset()
    splits = split_dataset(ds, (0.6, 0.2, 0.2), seed=5)
    with pytest.raises(ConfigError):
        backward_eliminate(splits, FAST_LEARNERS, min_size=0)
    with pytest.raises(ConfigError):
        backward_eliminate(splits, (ClassifierSpec("DT"), ClassifierSpec("DT")), min_size=1)


def test_initial_feature_restriction():
    ds = _signal_noise_dataset(seed=41)
    splits = split_dataset(ds, (0.6, 0.2, 0.2), seed=6)
    trace = backward_eliminate(splits, FAST_LEARNERS, min_size=1, features=("f0", "f2"))
    assert trace.steps[0].features == ("f0", "f2")
    assert all(set(step.features) <= {"f0", "f2"} for step in trace.steps)


def test_evaluate_learners_returns_models_and_scores():
    ds = _signal_noise_dataset(seed=43)
    splits = split_dataset(ds, (0.6, 0.2, 0.2), seed=7)
    acc, aucs, models = evaluate_learners(splits, FAST_LEARNERS, ("f0", "f1", "f2"))
    assert set(acc) == {"DT", "GNB"}
    assert set(models) == {"DT", "GNB"}
    X, y = design_matrix(splits.test, ("f0", "f1", "f2"))
    manual = float((predict_rows(models["DT"], X) == y).mean())
    assert acc["DT"] == pytest.approx(manual)
    assert 0.0 <= aucs["GNB"] <= 1.0


def test_elimination_deterministic():
    ds = _signal_noise_dataset(seed=47)
    splits = split_dataset(ds, (0.6, 0.2, 0.2), seed=8)
    a = backward_eliminate(splits, FAST_LEARNERS, min_size=1)
    b = backward_eliminate(splits, FAST_LEARNERS, min_size=1)
    assert a == b


SIX_LEARNER_FACTORS = ("weak-password", "compulsive-buyer", "shared-email-access", "receive-phishing-email")


def _six_learner_doc():
    # four strongly planted features survive the (strict) significance filter,
    # which is above min_size, so the pipeline runs real elimination steps
    return {
        "seed": 9,
        "alpha": 0.001,
        "generator": {
            "n_records": 160,
            "class_balance": 0.5,
            "seed": 3,
            "planted_factors": [
                {"feature": f, "value": 1, "victim_prob": 0.9} for f in SIX_LEARNER_FACTORS
            ],
        },
        "smote": {"balance": False},
        "elimination": {"min_size": 2},
    }


def test_six_learner_elimination_steps():
    report = run_pipeline(config_from_dict(_six_learner_doc()))
    survivors = len(report.survivors)
    assert survivors > 2
    baseline, *steps = report.elimination_rows
    assert baseline["baseline"] is True
    assert [row["n_features"] for row in steps] == list(range(survivors, 1, -1))
    for row in report.elimination_rows:
        assert set(row["accuracies"]) == set(KINDS)
        assert all(0.0 <= acc <= 1.0 for acc in row["accuracies"].values())
    for earlier, later in zip(steps, steps[1:]):
        assert earlier["removed"] in earlier["features"]
        assert set(later["features"]) == set(earlier["features"]) - {earlier["removed"]}
    assert steps[-1]["removed"] is None
    assert list(report.final_selection) in [row["features"] for row in steps]

    again = run_pipeline(config_from_dict(_six_learner_doc()))
    assert again.elimination_rows == report.elimination_rows
    assert again.final_selection == report.final_selection

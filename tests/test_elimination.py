"""Backward elimination wrapper search against an exhaustive-subset oracle."""

from __future__ import annotations

import random
from itertools import combinations

import pytest

from conftest import toy_dataset
from riskminer.classifiers import KINDS, ClassifierSpec, design_matrix, score_rows, train
from riskminer.dataset import split_dataset
from riskminer.elimination import StepRecord, backward_eliminate, best_choice, evaluate_learners
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
        best = max(best, float(((score_rows(model, X) >= 0.5) == y).mean()))
    return best


def test_boundary_min_size_equals_feature_count():
    ds = _signal_noise_dataset()
    splits = split_dataset(ds, (0.6, 0.2, 0.2), seed=1)
    steps = backward_eliminate(splits, FAST_LEARNERS, min_size=3)
    assert len(steps) == 1
    assert steps[0].removed is None
    assert steps[0].features == ("f0", "f1", "f2")
    assert best_choice(steps)[0].features == ("f0", "f1", "f2")


def test_label_copy_feature_survives_and_oracle_agrees():
    ds = _signal_noise_dataset()
    splits = split_dataset(ds, (0.6, 0.2, 0.2), seed=2)
    steps = backward_eliminate(splits, FAST_LEARNERS, min_size=1)
    assert "f0" in best_choice(steps)[0].features

    # exhaustive oracle over all 7 non-empty subsets: the greedy trace's
    # recorded accuracy for each visited set must match a fresh evaluation,
    # and the best visited set must contain the label copy
    for step in steps:
        fresh = _accuracy(splits, FAST_LEARNERS, step.features)
        assert max(step.accuracies.values()) == pytest.approx(fresh)
    subset_scores = {}
    for r in (1, 2, 3):
        for combo in combinations(("f0", "f1", "f2"), r):
            subset_scores[combo] = _accuracy(splits, FAST_LEARNERS, combo)
    best_visited = max(
        (tuple(step.features) for step in steps), key=lambda f: subset_scores[f]
    )
    assert subset_scores[best_choice(steps)[0].features] == subset_scores[best_visited]


def test_trace_sets_strictly_nested_and_accuracies_bounded():
    ds = _signal_noise_dataset(seed=31)
    splits = split_dataset(ds, (0.6, 0.2, 0.2), seed=3)
    steps = backward_eliminate(splits, FAST_LEARNERS, min_size=1)
    sizes = [len(step.features) for step in steps]
    assert sizes == [3, 2, 1]
    for earlier, later in zip(steps, steps[1:]):
        assert set(later.features) < set(earlier.features)
        assert earlier.removed in set(earlier.features) - set(later.features)
    assert steps[-1].removed is None
    for step in steps:
        for acc in step.accuracies.values():
            assert 0.0 <= acc <= 1.0
        for auc_value in step.aucs.values():
            assert 0.0 <= auc_value <= 1.0


def test_each_step_removes_argmax_removal():
    ds = _signal_noise_dataset(seed=37)
    splits = split_dataset(ds, (0.6, 0.2, 0.2), seed=4)
    steps = backward_eliminate(splits, FAST_LEARNERS, min_size=2)
    step = steps[0]
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
    steps = backward_eliminate(splits, FAST_LEARNERS, min_size=1, features=("f0", "f2"))
    assert steps[0].features == ("f0", "f2")
    assert all(set(step.features) <= {"f0", "f2"} for step in steps)


def test_evaluate_learners_returns_models_and_scores():
    ds = _signal_noise_dataset(seed=43)
    splits = split_dataset(ds, (0.6, 0.2, 0.2), seed=7)
    acc, aucs, models = evaluate_learners(splits, FAST_LEARNERS, ("f0", "f1", "f2"))
    assert set(acc) == {"DT", "GNB"}
    assert set(models) == {"DT", "GNB"}
    X, y = design_matrix(splits.test, ("f0", "f1", "f2"))
    manual = float(((score_rows(models["DT"], X) >= 0.5) == y).mean())
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


def test_best_choice_breaks_ties_by_auc_then_kind_then_size():
    def step(n, accuracies, aucs):
        return StepRecord(tuple(f"f{i}" for i in range(n)), accuracies, aucs, None)

    big = step(3, {"DT": 0.9, "GNB": 0.8}, {"DT": 0.95, "GNB": 0.99})
    small = step(2, {"DT": 0.9, "GNB": 0.9}, {"DT": 0.94, "GNB": 0.95})
    assert best_choice([big, small]) == (big, "DT")  # equal accuracy: the higher AUC
    tied = step(2, {"DT": 0.9, "GNB": 0.9}, {"DT": 0.95, "GNB": 0.95})
    assert best_choice([big, tied]) == (tied, "DT")  # equal AUC: DT before GNB, then the smaller set


def test_report_selection_is_the_best_learners_feature_set():
    # twelve planted features and one backward step: at generator seed 29
    # GNB scores the same test accuracy on the 12- and the 11-feature set,
    # and the 12-feature set has the higher AUC
    planted = ("weak-password", "social-media-user", "disclose-sentiment-on-social-media",
               "victimized-by-blackmailing", "maintained-privacy-on-social-media",
               "sharing-private-information-on-the-internet", "receive-phishing-email", "shared-email-access",
               "permitted-ingress-in-email", "clicked-on-spam-email-links", "online-products-purchaser",
               "lost-money-by-purchasing-online-commodities")
    doc = {
        "seed": 5,
        "alpha": 0.001,
        "generator": {"n_records": 300, "class_balance": 0.5, "seed": 29,
                      "planted_factors": [{"feature": f, "value": 1, "victim_prob": 0.7} for f in planted]},
        "smote": {"balance": False},
        "classifier_params": {"LR": {"max_iter": 150}},
        "elimination": {"min_size": 11},
    }
    report = run_pipeline(config_from_dict(doc))
    assert report.best["learner"] == "GNB"
    assert report.final_selection == tuple(report.best["features"]) == planted

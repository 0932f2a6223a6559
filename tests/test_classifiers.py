"""The six learners: split machinery, per-kind sanity, shared contracts."""

from __future__ import annotations

import json
import random
import warnings

import numpy as np
import pytest

from conftest import toy_dataset, toy_schema
from tree_oracle import EmptyNodeError, engine_split, gini
from riskminer.classifiers import (
    KINDS,
    ClassifierSpec,
    design_matrix,
    load_model,
    model_from_dict,
    model_to_dict,
    predict,
    save_model,
    score,
    score_rows,
    train,
)
from riskminer.classifiers.linear import LogisticLearner
from riskminer.errors import FeatureMismatchError, SingleClassError


def test_gini_values():
    assert gini([5, 5]) == pytest.approx(0.5)
    assert gini([10, 0]) == 0.0
    assert gini([2, 8]) == pytest.approx(0.32)
    with pytest.raises(EmptyNodeError):
        gini([0, 0])


def test_best_split_prefers_label_copy():
    records = [[0, 1], [0, 0], [1, 1], [1, 0]]
    labels = [0, 0, 1, 1]
    choice = engine_split(records, labels, [0, 1])
    assert choice.feature == 0
    assert choice.decrease == pytest.approx(0.5)


def test_best_split_pure_node_is_none():
    assert engine_split([[0, 1], [1, 0]], [1, 1], [0, 1]) is None


def test_best_split_tie_goes_to_lower_feature_index():
    records = [[0, 0], [1, 1]]
    labels = [0, 1]
    # exhaustive check: both features fully separate, so the decreases tie
    decreases = {}
    for f in (0, 1):
        only = engine_split(records, labels, [f])
        decreases[f] = only.decrease
    assert decreases[0] == decreases[1]
    assert engine_split(records, labels, [0, 1]).feature == 0


def test_best_split_partition_tie_takes_smallest_left():
    schema = toy_schema(1, values=(0, 1, 2))
    records = [[0], [0], [1], [1], [2], [2]]
    labels = [0, 1, 0, 0, 1, 1]
    # partitions {0,1}|{2} and {0,2}|{1} tie at the maximal decrease
    choice = engine_split(records, labels, [0])
    assert choice.left_values == (0, 1)
    del schema


def test_best_split_allows_zero_gain_on_impure_nodes():
    # XOR: every single-feature split leaves 50/50 children (zero gain) but
    # the node is impure, so a split must still be offered.
    records = [[0, 0], [0, 1], [1, 0], [1, 1]]
    labels = [0, 1, 1, 0]
    choice = engine_split(records, labels, [0, 1])
    assert choice is not None
    assert choice.decrease == pytest.approx(0.0)
    assert choice.feature == 0


def _training_accuracy(model, ds, features):
    X, y = design_matrix(ds, features)
    return float(((score_rows(model, X) >= 0.5) == y).mean())


def test_decision_tree_solves_xor():
    ds = toy_dataset([[0, 0], [0, 1], [1, 0], [1, 1]], [0, 1, 1, 0])
    model = train(ClassifierSpec("DT"), ds)
    assert _training_accuracy(model, ds, ds.schema.feature_names) == 1.0


def test_tree_paths_bounded_by_value_counts():
    rng = random.Random(10)
    schema = toy_schema(4, values=(0, 1, 2))
    records = [[rng.choice((0, 1, 2)) for _ in range(4)] for _ in range(120)]
    labels = [rng.randint(0, 1) for _ in range(120)]
    model = train(ClassifierSpec("DT"), toy_dataset(records, labels, schema=schema))

    trees = model.impl.params

    def walk(i, seen):
        feature = trees["feature"][i]
        if feature < 0:
            return
        seen = seen.copy()
        seen[feature] = seen.get(feature, 0) + 1
        assert seen[feature] <= 3  # three distinct values per feature
        walk(trees["left"][i], seen)
        walk(trees["right"][i], seen)

    walk(trees["roots"][0], {})


def test_random_forest_single_label_data():
    for label in (0, 1):
        ds = toy_dataset([[0, 1], [1, 0], [1, 1], [0, 0]], [label] * 4)
        model = train(ClassifierSpec("RF"), ds)
        X, _ = design_matrix(ds, ds.schema.feature_names)
        assert set((score_rows(model, X) >= 0.5).astype(int).tolist()) == {label}


def test_random_forest_score_granularity():
    rng = random.Random(3)
    records = [[rng.randint(0, 1) for _ in range(4)] for _ in range(80)]
    labels = [rng.randint(0, 1) for _ in range(80)]
    ds = toy_dataset(records, labels)
    model = train(ClassifierSpec("RF"), ds)
    X, _ = design_matrix(ds, ds.schema.feature_names)
    grid = {round(v, 1) for v in np.arange(0, 1.01, 0.1)}
    for s in score_rows(model, X):
        assert round(float(s), 1) in grid
        assert float(s) * 10 == pytest.approx(round(float(s) * 10))


def test_gnb_hand_posterior_one_dimensional():
    ds = toy_dataset([[0], [0], [1], [1]], [0, 0, 1, 1])
    model = train(ClassifierSpec("GNB"), ds)
    assert predict(model, [0]) == 0
    assert predict(model, [1]) == 1
    # smoothed variance 2.5e-10 makes the off-class likelihood vanish
    assert score(model, [0]) == pytest.approx(0.0, abs=1e-9)
    assert score(model, [1]) == pytest.approx(1.0, abs=1e-9)


def test_gnb_symmetric_midpoint():
    ds = toy_dataset([[0, 0], [0, 0], [1, 1], [1, 1]], [0, 0, 1, 1])
    model = train(ClassifierSpec("GNB"), ds)
    # the midpoint is not an integer code, but score accepts real rows
    assert float(score_rows(model, np.array([[0.5, 0.5]]))[0]) == pytest.approx(0.5, abs=1e-9)


def test_gnb_on_constant_features_scores_finite_values():
    # every feature variance is 0, so var_smoothing itself floors the variances
    ds = toy_dataset([[1, 1, 1]] * 10, [0, 1] * 5)
    model = train(ClassifierSpec("GNB"), ds)
    assert (model.impl.var > 0).all()
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        scores = score_rows(model, design_matrix(ds, model.features)[0])
    assert scores.tolist() == [0.5] * 10


def test_lr_zero_model_scores_half_and_predicts_victim():
    doc = {
        "format_version": 3,
        "kind": "LR",
        "hyperparameters": {"C": 1.0, "max_iter": 1000, "tol": 1e-6},
        "features": ["f0", "f1"],
        "warnings": [],
        "params": {"weights": [0.0, 0.0], "bias": 0.0, "converged": True},
    }
    model = model_from_dict(doc)
    assert score(model, [3, 4]) == 0.5
    assert predict(model, [3, 4]) == 1


def test_lr_gradient_matches_finite_differences():
    rng = np.random.default_rng(12)
    X = rng.integers(0, 3, size=(25, 4)).astype(np.float64)
    y = rng.integers(0, 2, size=25).astype(np.float64)
    learner = LogisticLearner(C=1.0)
    w = rng.normal(size=4) * 0.5
    b = 0.3
    grad_w, grad_b = learner.gradient(X, y, w, b)
    h = 1e-5
    for j in range(4):
        bump = np.zeros(4)
        bump[j] = h
        numeric = (learner.objective(X, y, w + bump, b) - learner.objective(X, y, w - bump, b)) / (2 * h)
        assert abs(numeric - grad_w[j]) <= 1e-6 * max(1.0, abs(grad_w[j]))
    numeric_b = (learner.objective(X, y, w, b + h) - learner.objective(X, y, w, b - h)) / (2 * h)
    assert abs(numeric_b - grad_b) <= 1e-6 * max(1.0, abs(grad_b))


def test_lr_objective_monotone_and_converges():
    rng = np.random.default_rng(4)
    X = rng.integers(0, 2, size=(60, 3)).astype(np.float64)
    y = (X.sum(axis=1) >= 2).astype(np.int64)
    learner = LogisticLearner()
    learner.fit(X, y)
    path = learner.objective_path
    assert all(b <= a + 1e-12 for a, b in zip(path, path[1:]))
    gw, gb = learner.gradient(X, y.astype(float), learner.weights, learner.bias)
    if learner.converged:
        assert float(np.sqrt(gw @ gw + gb * gb)) <= 1e-6


def test_lr_monotone_in_positive_weight_feature():
    rng = np.random.default_rng(8)
    X = rng.integers(0, 3, size=(80, 3)).astype(np.float64)
    y = (X[:, 0] >= 1).astype(np.int64)
    ds = toy_dataset(X.astype(int).tolist(), y.tolist(), schema=toy_schema(3, values=(0, 1, 2)))
    model = train(ClassifierSpec("LR"), ds)
    weights = model.impl.weights
    j = int(np.argmax(weights))
    assert weights[j] > 0
    base = np.array([1.0, 1.0, 1.0])
    scores = []
    for v in np.linspace(0, 2, 9):
        row = base.copy()
        row[j] = v
        scores.append(score(model, row))
    assert all(b >= a - 1e-12 for a, b in zip(scores, scores[1:]))


def test_svc_alphas_bounded_and_kkt_on_separable_data():
    rng = np.random.default_rng(6)
    X0 = rng.integers(0, 2, size=(30, 3)) + 0
    X1 = rng.integers(1, 3, size=(30, 3)) + 2
    X = np.vstack([X0, X1]).astype(np.float64)
    y = np.array([0] * 30 + [1] * 30)
    from riskminer.classifiers.svm import PolySVCLearner

    learner = PolySVCLearner()
    learner.fit(X, y)
    assert learner.converged
    alphas = learner.alphas_
    assert np.all(alphas >= -1e-12)
    assert np.all(alphas <= learner.C + 1e-12)
    decision = learner.decision_values(X)
    sign = np.where(y == 1, 1.0, -1.0)
    margin = sign * decision
    tol = learner.tol + 1e-6
    for i in range(len(y)):
        if alphas[i] < learner.C - 1e-9:
            assert margin[i] >= 1.0 - tol
        if alphas[i] > 1e-9:
            assert margin[i] <= 1.0 + tol


def test_gb_training_log_loss_monotone():
    rng = np.random.default_rng(17)
    X = rng.integers(0, 2, size=(150, 5)).astype(np.float64)
    y = ((X[:, 0] + X[:, 1] + rng.random(150) * 0.3) >= 1.1).astype(np.int64)
    ds = toy_dataset(X.astype(int).tolist(), y.tolist())
    model = train(ClassifierSpec("GB"), ds)
    losses = model.impl.train_losses
    assert len(losses) == 101  # prior + one per boosting round
    assert all(b <= a + 1e-12 for a, b in zip(losses, losses[1:]))


def test_single_class_refusals():
    ds = toy_dataset([[0, 1], [1, 0], [1, 1]], [1, 1, 1])
    for kind in ("LR", "SVC", "GB"):
        with pytest.raises(SingleClassError):
            train(ClassifierSpec(kind), ds)


def _separable_dataset(n=240, seed=15):
    # class 0 rows sum to at most 1; class 1 rows sum to at least 5
    rng = random.Random(seed)
    records, labels = [], []
    for i in range(n):
        if i % 2 == 0:
            row = [0, 0, 0]
            if rng.random() < 0.5:
                row[rng.randrange(3)] = 1
            labels.append(0)
        else:
            row = [2, 2, 2]
            if rng.random() < 0.5:
                row[rng.randrange(3)] = 1
            labels.append(1)
        records.append(row)
    return toy_dataset(records, labels, schema=toy_schema(3, values=(0, 1, 2)))


@pytest.mark.parametrize("kind", KINDS)
def test_separable_training_accuracy(kind):
    ds = _separable_dataset()
    model = train(ClassifierSpec(kind), ds)
    assert _training_accuracy(model, ds, ds.schema.feature_names) >= 0.95


# a value other than the default for every hyperparameter each learner takes
CHANGED_HYPERPARAMETERS = {
    "RF": {"n_estimators": 3, "min_samples_split": 30, "seed": 7},
    "DT": {"min_samples_split": 30},
    "LR": {"C": 0.01, "max_iter": 1, "tol": 10.0},
    "SVC": {"C": 0.01, "degree": 2, "coef0": 1.0, "gamma": 0.5, "tol": 0.5, "max_passes": 1},
    "GB": {"learning_rate": 0.5, "n_estimators": 5, "max_depth": 1},
    "GNB": {"var_smoothing": 0.5},
}


@pytest.mark.parametrize("kind", KINDS)
def test_every_hyperparameter_changes_the_fitted_params(kind):
    rng = random.Random(3)
    records = [[rng.randrange(3) for _ in range(4)] for _ in range(120)]
    labels = [1 if r[0] + r[1] + rng.random() * 2 >= 2.5 else 0 for r in records]
    ds = toy_dataset(records, labels, schema=toy_schema(4, values=(0, 1, 2)))
    spec = ClassifierSpec(kind)
    assert set(spec.resolved()) == set(CHANGED_HYPERPARAMETERS[kind])  # no setting goes unread
    base = model_to_dict(train(spec, ds))["params"]
    for key, value in CHANGED_HYPERPARAMETERS[kind].items():
        assert model_to_dict(train(ClassifierSpec(kind, {key: value}), ds))["params"] != base, key


@pytest.mark.parametrize("kind", KINDS)
def test_determinism_and_persistence(kind, tmp_path):
    ds = _separable_dataset(n=80, seed=KINDS.index(kind))
    model_a = train(ClassifierSpec(kind), ds)
    model_b = train(ClassifierSpec(kind), ds)
    doc_a = json.dumps(model_to_dict(model_a), sort_keys=True)
    doc_b = json.dumps(model_to_dict(model_b), sort_keys=True)
    assert doc_a == doc_b  # bit-stable given identical training inputs

    path = tmp_path / f"{kind}.json"
    save_model(model_a, path)
    restored = load_model(path)
    X, _ = design_matrix(ds, ds.schema.feature_names)
    assert np.array_equal(score_rows(model_a, X), score_rows(restored, X))
    save_model(restored, tmp_path / "again.json")
    assert path.read_text() == (tmp_path / "again.json").read_text()


@pytest.mark.parametrize("kind, edit", [
    ("DT", lambda doc: doc["params"]["feature"].__setitem__(0, 99)),
    ("GNB", lambda doc: doc["params"]["classes"].append(7)),
    ("RF", lambda doc: doc["hyperparameters"].update(seed=7)),
])
def test_editing_a_model_document_leaves_the_model_as_it_was(kind, edit):
    model = train(ClassifierSpec(kind), _separable_dataset(n=60, seed=3))
    before = json.dumps(model_to_dict(model), sort_keys=True)
    edit(model_to_dict(model))
    assert json.dumps(model_to_dict(model), sort_keys=True) == before
    doc = model_to_dict(model)
    loaded = model_from_dict(doc)
    edit(doc)  # the document a model was loaded from
    assert json.dumps(model_to_dict(loaded), sort_keys=True) == before


@pytest.mark.parametrize("kind", KINDS)
def test_score_predict_consistency(kind):
    ds = _separable_dataset(n=60, seed=29)
    model = train(ClassifierSpec(kind), ds)
    rng = random.Random(31)
    for _ in range(20):
        row = [rng.choice((0, 1, 2)) for _ in range(3)]
        s = score(model, row)
        assert 0.0 <= s <= 1.0
        assert predict(model, row) == (1 if s >= 0.5 else 0)


def test_feature_mismatch():
    ds = _separable_dataset(n=40)
    model = train(ClassifierSpec("DT"), ds, features=("f0", "f1"))
    with pytest.raises(FeatureMismatchError):
        predict(model, [0, 1, 2])
    with pytest.raises(FeatureMismatchError):
        score_rows(model, np.zeros((4, 3)))


def test_train_on_feature_subset_projects_columns():
    ds = _separable_dataset(n=60)
    model = train(ClassifierSpec("DT"), ds, features=("f2",))
    assert model.features == ("f2",)
    assert predict(model, [2]) in (0, 1)


def test_lr_iteration_cap_flags_model():
    ds = _separable_dataset(n=100, seed=51)
    model = train(ClassifierSpec("LR", hyperparameters={"max_iter": 2}), ds)
    assert model.warnings
    assert "iteration cap" in model.warnings[0]
    assert model.impl.converged is False
    doc = model_to_dict(model)
    assert model_from_dict(doc).warnings == model.warnings
    del doc["warnings"]  # a model file without the key has no warnings
    assert model_from_dict(doc).warnings == ()


def test_dt_leaf_tie_goes_to_victim():
    # duplicate conflicting records: the leaf holds one of each label
    ds = toy_dataset([[0, 0], [0, 0]], [0, 1])
    model = train(ClassifierSpec("DT"), ds)
    assert score(model, [0, 0]) == 0.5
    assert predict(model, [0, 0]) == 1


@pytest.mark.parametrize("degree, coef0", [(3, 0.0), (2, 1.0), (3, -0.5)])
def test_svc_kernel_matches_the_plain_expression_bit_for_bit(degree, coef0):
    from riskminer.classifiers.svm import PolySVCLearner

    rng = np.random.default_rng(degree)
    A = rng.integers(0, 5, size=(40, 7)).astype(np.float64)
    B = A[:25]
    learner = PolySVCLearner(degree=degree, coef0=coef0)
    learner.gamma_value = 1.0 / (7 * A.var())
    expected = (learner.gamma_value * (A @ B.T) + coef0) ** degree
    assert np.array_equal(learner._kernel(A, B), expected)

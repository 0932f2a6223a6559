"""Fixed behaviour of the tree learners, stated through the public API only:
fitted-model digests and the routing of codes unseen at fit time."""

from __future__ import annotations

import hashlib
import json
import random

import numpy as np

from riskminer.classifiers import (
    ClassifierSpec,
    model_from_dict,
    model_to_dict,
    score,
    score_rows,
    train,
)
from riskminer.classifiers.linear import sigmoid
from riskminer.dataset import Dataset
from riskminer.schema import FeatureSpec, Schema

# -- pinned fitted models ----------------------------------------------------


def _digest_dataset() -> Dataset:
    specs = (
        FeatureSpec("a0", "binary", (0, 1)),
        FeatureSpec("a1", "binary", (0, 1)),
        FeatureSpec("b0", "ordinal", (1, 2, 3)),
        FeatureSpec("b1", "discrete", (1, 2, 3)),
        FeatureSpec("c0", "discrete", (0, 1, 2)),
        FeatureSpec("d0", "discrete", (0, 1, 2, 3, 4)),
    )
    rng = random.Random(2404)
    records, labels = [], []
    for _ in range(240):
        rec = (
            rng.randint(0, 1),
            rng.randint(0, 1),
            rng.randint(1, 3),
            rng.randint(1, 3),
            rng.randint(0, 2),
            rng.randint(0, 4),
        )
        signal = rec[0] + (rec[2] == 3) + (rec[4] == 2) + (rec[5] in (1, 4)) + rng.random() * 1.5
        records.append(rec)
        labels.append(1 if signal >= 2.0 else 0)
    return Dataset(schema=Schema(features=specs), records=tuple(records), labels=tuple(labels))


# sha256 of json.dumps(model_to_dict(model), sort_keys=True), recorded with the
# scalar split search that the histogram engine replaced
PINNED_DIGESTS = {
    "DT": "97b4f79b2a641b4c58f77e8534d7816933b73a82d869ca5c8b7f26224cdcd6f6",
    "RF": "2a98455228bca4047c8d66475d6932ea0344deb1f0af0dd3ae5adf15b1401e9a",
    "GB": "4daa43436ce160471bed9e35c64aa4093c9d16955ea1e58099715842a0627f07",
}


def test_fitted_tree_models_match_pinned_digests():
    ds = _digest_dataset()
    for kind, digest in PINNED_DIGESTS.items():
        doc = json.dumps(model_to_dict(train(ClassifierSpec(kind), ds)), sort_keys=True)
        assert hashlib.sha256(doc.encode()).hexdigest() == digest, kind


# -- unseen codes ------------------------------------------------------------


def _leaf(n, pos=0, value=0.0):
    return {"n": n, "pos": pos, "value": value}


def _stump(n_left, n_right):
    # feature 0 was seen only as codes {0} | {1}; 2 and -1 are unseen
    return {
        "n": n_left + n_right,
        "feature": 0,
        "left_values": [0],
        "right_values": [1],
        "left": _leaf(n_left, pos=0, value=-1.0),
        "right": _leaf(n_right, pos=n_right, value=1.0),
    }


def _model(kind, tree):
    hyper = {
        "DT": {"criterion": "gini", "splitter": "best", "min_samples_split": 2, "seed": 22},
        "RF": {"n_estimators": 1, "criterion": "gini", "min_samples_split": 2, "seed": 42},
        "GB": {"learning_rate": 1.0, "n_estimators": 1, "max_depth": 1, "criterion": "friedman-mse", "seed": 42},
    }[kind]
    params = {
        "DT": {"tree": tree},
        "RF": {"trees": [tree]},
        "GB": {"init_score": 0.0, "trees": [tree], "train_losses": [0.7, 0.6]},
    }[kind]
    doc = {
        "format_version": 1,
        "kind": kind,
        "hyperparameters": hyper,
        "features": ["f0", "f1"],
        "warnings": [],
        "params": params,
    }
    return model_from_dict(doc)


def test_unseen_code_follows_heavier_child_and_ties_go_left():
    gb_left, gb_right = sigmoid(np.array([-1.0, 1.0])).tolist()
    left_score = {"DT": 0.0, "RF": 0.0, "GB": gb_left}
    right_score = {"DT": 1.0, "RF": 1.0, "GB": gb_right}
    for kind in ("DT", "RF", "GB"):
        for n_left, n_right, heavier in ((5, 3, "left"), (3, 5, "right"), (4, 4, "left")):
            model = _model(kind, _stump(n_left, n_right))
            expected = (left_score if heavier == "left" else right_score)[kind]
            # seen codes route by their value sets whatever the weights
            assert score(model, [0, 7]) == left_score[kind]
            assert score(model, [1, 7]) == right_score[kind]
            for unseen in (2, -1, 2.5, 9):
                assert score(model, [unseen, 0]) == expected, (kind, n_left, n_right, unseen)
            X = np.array([[0, 0], [2, 0], [1, 0], [-1, 1], [1.9, 1], [9, 0]], dtype=np.float64)
            # 1.9 truncates to the seen code 1, as int() truncates it
            want = [left_score[kind], expected, right_score[kind], expected, right_score[kind], expected]
            assert score_rows(model, X).tolist() == want, (kind, n_left, n_right)

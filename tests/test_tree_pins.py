"""Fixed behaviour of the tree learners, stated through the public API only:
fitted-model digests in the grower's node order and in preorder, the
loading of model files written in preorder, the routing of codes unseen at
fit time, and the refusal of malformed model files."""

from __future__ import annotations

import hashlib
import json
import random

import numpy as np
import pytest

import tree_oracle
from riskminer.classifiers import (
    ClassifierSpec,
    model_from_dict,
    model_to_dict,
    score,
    score_rows,
    train,
)
from riskminer.classifiers.linear import sigmoid
from riskminer.cli import main
from riskminer.dataset import Dataset
from riskminer.errors import ConfigError
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


# sha256 of json.dumps(model_to_dict(model), sort_keys=True). The tree params
# were recorded with the scalar split search that the histogram engine
# replaced; the digests were re-recorded for model format 2, whose
# hyperparameters list only the keys a learner reads, with params unchanged,
# and for format 3, whose params hold the same trees as per-node lists in
# preorder (with ``pos`` on inner nodes too). The RF digest was re-recorded
# when RF grew level by level, drawing each tree's feature subsets level by
# level instead of node by node in preorder; ``test_tree_grower`` pins the
# old forest to its old digest. The GB digests were re-recorded when each
# leaf's Newton step summed its rows in row order instead of pairwise: the
# trees are node for node the same, and only leaf values (at most 2.9e-11
# relative) and train losses moved in their last digits. These are the
# digests of the models with their nodes in preorder; a fit numbers them as
# the grower creates them, level by level, and ``PINNED_DIGESTS`` holds the
# digests of that order.
PREORDER_DIGESTS = {
    "DT": "db59bae1900b574e448656e50c57d5b22ed700dd9f7d76ef909e68da2c169976",
    "RF": "335cb5f4b7fc8f68ec8dec8f9573a78f3b315620532ef8f9e4e9218dbc9a0327",
    "GB": "68a91f51c1147474d4cfd859b98a812c124ad0fa0206a7262c07ad37e35c4179",
}
PINNED_DIGESTS = {
    "DT": "525a8832ce38cc9bb5287437c1c910888d155f8767acb071612521a133302441",
    "RF": "0f8868634e7cfbffdaba49cd1f5791ea5ff0546f81e3006fdf6587c4126972e4",
    "GB": "6da2771286c63094e7b2fc6d6eb229e74598ec7c770f6bc7e108ad88d00a866b",
}


def _sha256(doc: dict) -> str:
    return hashlib.sha256(json.dumps(doc, sort_keys=True).encode()).hexdigest()


def _preorder_doc(model) -> dict:
    """The model document of *model* with its trees' nodes in preorder, as
    model files were written before fits kept the grower's numbering."""
    doc = model_to_dict(model)
    doc["params"].update(tree_oracle.preorder(doc["params"])[0])
    return doc


def test_fitted_tree_models_match_pinned_digests():
    ds = _digest_dataset()
    for kind, digest in PINNED_DIGESTS.items():
        assert _sha256(model_to_dict(train(ClassifierSpec(kind), ds))) == digest, kind


@pytest.mark.parametrize("kind", ["DT", "RF", "GB"])
def test_fitted_trees_in_preorder_match_the_preorder_digests(kind):
    # the same trees, node for node, as the fits that wrote preorder files
    assert _sha256(_preorder_doc(train(ClassifierSpec(kind), _digest_dataset()))) == PREORDER_DIGESTS[kind]


@pytest.mark.parametrize("kind", ["DT", "RF", "GB"])
def test_a_preorder_model_file_scores_as_the_fitted_model(kind):
    ds = _digest_dataset()
    model = train(ClassifierSpec(kind), ds)
    old = model_from_dict(json.loads(json.dumps(_preorder_doc(model))))
    X = ds.codes.astype(np.float64)
    X[::7, 3] = 9  # unseen codes follow the heavier child in either order
    assert score_rows(old, X).tobytes() == score_rows(model, X).tobytes()


# -- unseen codes ------------------------------------------------------------


def _stump(n_left, n_right):
    # feature 0 was seen only as codes {0} | {1}; 2 and -1 are unseen
    return {
        "roots": [0],
        "feature": [0, -1, -1],
        "left": [1, -1, -1],
        "right": [2, -1, -1],
        "left_values": [[0], [], []],
        "right_values": [[1], [], []],
        "n": [n_left + n_right, n_left, n_right],
        "pos": [n_right, 0, n_right],
        "value": [0.0, -1.0, 1.0],
    }


def _doc(kind, trees):
    hyper = {
        "DT": {"min_samples_split": 2},
        "RF": {"n_estimators": 1, "min_samples_split": 2, "seed": 42},
        "GB": {"learning_rate": 1.0, "n_estimators": 1, "max_depth": 1},
    }[kind]
    params = {"init_score": 0.0, **trees, "train_losses": [0.7, 0.6]} if kind == "GB" else trees
    return {
        "format_version": 3,
        "kind": kind,
        "hyperparameters": hyper,
        "features": ["f0", "f1"],
        "warnings": [],
        "params": params,
    }


def _model(kind, trees):
    return model_from_dict(_doc(kind, trees))


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


# -- model files are outside input -------------------------------------------


def _malformed(**columns):
    return {**_stump(4, 4), **columns}


MALFORMED = {
    "unequal lists": _malformed(n=[8, 4, 4, 1]),
    "no tree": _malformed(roots=[]),
    "root outside": _malformed(roots=[3]),
    "root not an integer": _malformed(roots=[0.0]),
    "child outside": _malformed(left=[5, -1, -1]),
    "negative child": _malformed(right=[-1, -1, -1]),
    "child before parent": _malformed(left=[0, -1, -1]),
    "cycle": _malformed(feature=[0, -1, 0], left=[1, -1, 0], left_values=[[0], [], [0]], right_values=[[1], [], [1]]),
    "negative split code": _malformed(left_values=[[-1], [], []]),
    "fractional split code": _malformed(left_values=[[0.5], [], []]),
    "string split code": _malformed(right_values=[["1"], [], []]),
    "boolean split code": _malformed(right_values=[[True], [], []]),
    "code sets not lists": _malformed(left_values=[0, [], []]),
    "column not a list": _malformed(feature=0),
    "missing column": {k: v for k, v in _stump(4, 4).items() if k != "pos"},
    "huge index": _malformed(n=[8, 4, 2**70]),
    "more victims than rows": _malformed(pos=[4, 9, 4]),
    "code on both sides": _malformed(right_values=[[0, 1], [], []]),
    "code listed twice": _malformed(left_values=[[0, 0], [], []]),
}


@pytest.mark.parametrize("kind", ["DT", "RF", "GB"])
@pytest.mark.parametrize("name", MALFORMED)
def test_malformed_tree_records_are_refused(kind, name):
    with pytest.raises(ConfigError):
        _model(kind, MALFORMED[name])


def _format_2(kind):
    leaf = {"n": 4, "pos": 0, "value": 0.0}
    tree = {"n": 8, "feature": 0, "left_values": [0], "right_values": [1], "left": leaf, "right": leaf}
    doc = _doc(kind, {})
    doc["format_version"] = 2
    doc["params"] = {"tree": tree} if kind == "DT" else {"init_score": 0.0, "trees": [tree], "train_losses": []}
    return doc


@pytest.mark.parametrize("name", ["child before parent", "negative split code", "unequal lists", "format 2"])
def test_evaluate_refuses_malformed_model_files(name, tmp_path, capsys):
    doc = _format_2("DT") if name == "format 2" else _doc("DT", MALFORMED[name])
    path = tmp_path / "model.json"
    path.write_text(json.dumps(doc), encoding="utf-8")
    argv = ["evaluate", "--model", str(path), "--input", str(tmp_path / "data.csv"), "--out", str(tmp_path / "m")]
    assert main(argv) == 2
    err = capsys.readouterr().err
    assert err.startswith("config error:") and err.count("\n") == 1, err


def test_a_huge_split_code_widens_the_table_by_one_column_only():
    # the next-node table has one column per distinct split code plus one for
    # every other code, so a code of 10**9 costs one column, not 10**9
    ds = _digest_dataset()
    model = train(ClassifierSpec("RF"), ds)
    doc = json.loads(json.dumps(model_to_dict(model)))
    inner = next(i for i, f in enumerate(doc["params"]["feature"]) if f >= 0)
    doc["params"]["right_values"][inner].append(10**9)
    huge = model_from_dict(doc)
    codes = {c for column in ("left_values", "right_values") for values in doc["params"][column] for c in values}
    assert huge.impl.table.next.shape[1] <= len(codes) + 1
    X = ds.codes.astype(np.float64)
    assert score_rows(huge, X).tolist() == score_rows(model, X).tolist()

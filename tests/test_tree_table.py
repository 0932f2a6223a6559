"""A fitted tree set has one in-memory form, the ``TreeTable`` arrays: the
table a fit builds is, array for array, the table that its model file loads
to, files round-trip and score alike (preorder ones too), and a fitted tree
learner holds no per-node lists."""

from __future__ import annotations

import json
import pickle

import numpy as np
from hypothesis import given, settings
from hypothesis import strategies as st

import tree_oracle
from riskminer.chisq import rank_features
from riskminer.classifiers import (
    ClassifierSpec,
    design_matrix,
    model_from_dict,
    model_to_dict,
    score_rows,
    train,
    train_many,
)
from riskminer.dataset import Dataset, split_dataset
from riskminer.generate import generate_synthetic
from riskminer.pipeline import config_from_dict, survivors
from riskminer.schema import FeatureSpec, Schema
from riskminer.smote import resolve_targets, smote_n


@st.composite
def problems(draw):
    """2-50 rows over 1-6 features, each over 1-4 codes from 0-5 (so with
    gaps), its largest code at times recoded to 1,000,000; both classes."""
    n_rows = draw(st.integers(2, 50))
    specs, columns = [], []
    for j in range(draw(st.integers(1, 6))):
        codes = draw(st.lists(st.integers(0, 5), min_size=1, max_size=4, unique=True))
        if draw(st.integers(0, 3)) == 0:
            codes = [1_000_000 if c == max(codes) else c for c in codes]
        columns.append(draw(st.lists(st.sampled_from(codes), min_size=n_rows, max_size=n_rows)))
        specs.append(FeatureSpec(f"f{j}", "discrete", tuple(sorted(codes))))
    labels = draw(st.lists(st.integers(0, 1), min_size=n_rows, max_size=n_rows).filter(lambda y: 0 < sum(y) < n_rows))
    return Dataset(Schema(features=tuple(specs)), np.array(columns).T, labels)


def _same_table(got, want) -> None:
    # the arrays a table pickles: its scoring step table is built on first use
    got, want = got.__getstate__(), want.__getstate__()
    assert got.keys() == want.keys()
    for name, array in want.items():
        assert isinstance(array, np.ndarray), name
        assert got[name].dtype == array.dtype and np.array_equal(got[name], array), name


def _probe(ds: Dataset, model) -> np.ndarray:
    """The model's columns of *ds*, with some codes no node saw at fit time."""
    X = ds.codes[:, [ds.schema.index_of(f) for f in model.features]].astype(np.float64)
    X[::3, 0] = 7
    X[1::4, -1] = -1
    return X


def _check_file_round_trip(ds: Dataset, model) -> None:
    doc = model_to_dict(model)
    loaded = model_from_dict(json.loads(json.dumps(doc)))
    _same_table(loaded.impl.table, model.impl.table)
    assert model_to_dict(loaded) == doc
    X = _probe(ds, model)
    assert score_rows(loaded, X).tobytes() == score_rows(model, X).tobytes()
    # a file written in preorder, as older builds wrote them
    preorder = json.loads(json.dumps(doc))
    preorder["params"].update(tree_oracle.preorder(preorder["params"])[0])
    old = model_from_dict(preorder)
    assert model_to_dict(old) == preorder
    assert score_rows(old, X).tobytes() == score_rows(model, X).tobytes()


@settings(max_examples=120, deadline=None)
@given(problems(), st.data())
def test_a_fit_builds_the_table_its_model_file_loads_to(ds, data):
    names = ds.schema.feature_names
    features = tuple(data.draw(st.lists(st.sampled_from(names), min_size=1, max_size=len(names), unique=True)))
    spec = data.draw(st.sampled_from([
        ClassifierSpec("DT", {"min_samples_split": data.draw(st.integers(2, 5))}),
        ClassifierSpec("RF", {"n_estimators": data.draw(st.integers(1, 4)), "seed": data.draw(st.integers(0, 9))}),
        ClassifierSpec("GB", {"n_estimators": data.draw(st.integers(1, 5)), "max_depth": data.draw(st.integers(1, 3))}),
    ]))
    _check_file_round_trip(ds, train(spec, ds, features))


@settings(max_examples=60, deadline=None)
@given(problems(), st.data())
def test_lockstep_fits_build_the_tables_their_model_files_load_to(ds, data):
    # each set a subset of the columns, in any order; train_many boosts them together
    names = ds.schema.feature_names
    size = data.draw(st.integers(1, len(names)))
    sets = data.draw(st.lists(st.permutations(names).map(lambda p: tuple(p[:size])), min_size=2, max_size=4))
    n_estimators, max_depth = data.draw(st.integers(1, 5)), data.draw(st.integers(1, 3))
    spec = ClassifierSpec("GB", {"n_estimators": n_estimators, "max_depth": max_depth})
    for model in train_many(spec, ds, sets):
        _check_file_round_trip(ds, model)


def test_resaving_a_file_lists_each_nodes_codes_in_ascending_order_and_a_leafs_as_empty():
    params = {
        "roots": [0],
        "feature": [0, -1, -1],
        "left": [1, -1, -1],
        "right": [2, -1, -1],
        "left_values": [[4, 0], [3], []],
        "right_values": [[2, 1], [], [5]],
        "n": [8, 4, 4],
        "pos": [4, 0, 4],
        "value": [0, 0, 0],
    }
    doc = {"format_version": 3, "kind": "DT", "hyperparameters": {"min_samples_split": 2}, "features": ["f0"],
           "warnings": [], "params": params}
    resaved = model_to_dict(model_from_dict(doc))["params"]
    assert resaved == {**params, "left_values": [[0, 4], [], []], "right_values": [[1, 2], [], []],
                       "value": [0.0, 0.0, 0.0]}


# bench/workloads.py eliminate_config(7): one backward step over 12 survivors
ELIMINATE_FEATURES = (
    "weak-password",
    "social-media-user",
    "disclose-sentiment-on-social-media",
    "victimized-by-blackmailing",
    "maintained-privacy-on-social-media",
    "sharing-private-information-on-the-internet",
    "receive-phishing-email",
    "shared-email-access",
    "permitted-ingress-in-email",
    "clicked-on-spam-email-links",
    "online-products-purchaser",
    "lost-money-by-purchasing-online-commodities",
)


def _eliminate_training_part() -> tuple[Dataset, tuple[str, ...]]:
    cfg = config_from_dict({
        "seed": 5,
        "alpha": 0.001,
        "generator": {
            "n_records": 300,
            "class_balance": 0.5,
            "seed": 7,
            "planted_factors": [{"feature": f, "value": 1, "victim_prob": 0.7} for f in ELIMINATE_FEATURES],
        },
        "smote": {"balance": False},
    })
    ds = generate_synthetic(cfg.generator)
    augmented = smote_n(ds, resolve_targets(ds, cfg.smote_balance, cfg.smote_target_total), cfg.smote_k, cfg.seed)
    kept = survivors(rank_features(augmented, cfg.alpha), cfg.schema)
    return split_dataset(augmented, cfg.ratios, cfg.seed, cfg.stratified).train, kept


def test_an_eliminate_shaped_boosting_model_pickles_small_and_no_tree_learner_holds_lists():
    train_part, kept = _eliminate_training_part()
    assert (len(train_part), len(kept)) == (225, 12)
    models = {kind: train(ClassifierSpec(kind), train_part, kept[:11]) for kind in ("DT", "RF", "GB")}
    score_rows(models["GB"], design_matrix(train_part, kept[:11])[0])  # as elimination scores it before sending it
    # 100 depth-3 trees; their per-node lists alone took 46 KB of the 132 KB
    assert len(pickle.dumps(models["GB"])) <= 90_000
    for kind, model in models.items():
        held = {name for name, value in vars(model.impl).items() if isinstance(value, (list, tuple, dict))}
        assert held == set(), kind
        assert all(isinstance(array, np.ndarray) for array in vars(model.impl.table).values()), kind

"""The level-wise grower against the depth-first grower it replaced
(``tree_oracle.grow``): DT and GB trees list for list once renumbered to
preorder, RF by its properties, and fits on schemas with large codes."""

from __future__ import annotations

import hashlib
import json
import math
import tracemalloc

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import tree_oracle
from riskminer.classifiers import ClassifierSpec, model_to_dict, train
from riskminer.classifiers import tree as tree_module
from riskminer.classifiers.boosting import GradientBoostingLearner
from riskminer.classifiers.forest import DecisionTreeLearner, RandomForestLearner
from riskminer.classifiers.linear import sigmoid
from riskminer.classifiers.tree import TREE_COLUMNS, TreeGrower, category_codes
from test_tree_pins import _digest_dataset


@st.composite
def code_matrices(draw):
    """1-8 features, each over a random set of codes from 0-5 (so with gaps),
    on 1-60 rows."""
    n_rows = draw(st.integers(1, 60))
    columns = []
    for _ in range(draw(st.integers(1, 8))):
        codes = draw(st.lists(st.integers(0, 5), min_size=1, max_size=4, unique=True))
        columns.append(draw(st.lists(st.sampled_from(codes), min_size=n_rows, max_size=n_rows)))
    return np.array(columns, dtype=np.float64).T


def _oracle_record(grow_calls) -> dict:
    trees = {column: [] for column in TREE_COLUMNS}
    leaves = [tree_oracle.grow(trees, *args, **kwargs) for args, kwargs in grow_calls]
    return trees, leaves


@settings(max_examples=300, deadline=None)
@given(code_matrices(), st.data())
def test_decision_trees_match_the_depth_first_grower(X, data):
    y = np.array(data.draw(st.lists(st.integers(0, 1), min_size=len(X), max_size=len(X))))
    min_samples_split = data.draw(st.integers(2, 6))
    grower = TreeGrower(X)
    leaf = grower.grow(y, "gini", min_samples_split=min_samples_split)
    want, (want_leaf,) = _oracle_record([((category_codes(X), y, "gini", min_samples_split), {})])
    # the grower numbers nodes in creation order, the oracle in preorder
    got, ids = tree_oracle.preorder(grower.table().record())
    assert got == want
    assert ids[leaf].tolist() == want_leaf.tolist()


@settings(max_examples=300, deadline=None)
@given(code_matrices(), st.data())
def test_regression_trees_match_the_depth_first_grower(X, data):
    value = st.one_of(
        st.sampled_from([-0.5, -0.25, 0.0, 0.25, 0.5, 1.0]),
        st.floats(-1.0, 1.0, allow_nan=False, allow_subnormal=False),
    )
    rounds = data.draw(st.lists(st.lists(value, min_size=len(X), max_size=len(X)), min_size=1, max_size=3))
    max_depth = data.draw(st.integers(1, 4))
    min_samples_split = data.draw(st.integers(2, 4))
    # 2-D targets refit every row, so the grower keeps level layouts across
    # rounds; a repeated round meets them again. 1-D targets keep none.
    grower = TreeGrower(X)
    calls = [np.array(r) for r in rounds + rounds[:1]]
    shape = data.draw(st.sampled_from([(len(X),), (1, len(X))]))
    leaves = [grower.grow(r.reshape(shape), "friedman-mse", min_samples_split=min_samples_split, max_depth=max_depth)
              for r in calls]
    assert len(shape) == 2 or grower.memo == {}
    want, want_leaves = _oracle_record(
        [((category_codes(X), r, "friedman-mse", min_samples_split, max_depth), {}) for r in calls]
    )
    got, ids = tree_oracle.preorder(grower.table().record())
    assert got == want
    assert [ids[leaf].tolist() for leaf in leaves] == [leaf.tolist() for leaf in want_leaves]


def test_boosting_leaf_values_are_newton_steps_over_their_rows():
    # each round's raw scores rebuilt from the model's own earlier trees
    rng = np.random.default_rng(11)
    X = rng.integers(0, 4, size=(500, 5)).astype(np.float64)
    y = (rng.random(500) < 0.15 + 0.2 * X[:, 0] * (X[:, 1] > 1)).astype(np.int64)
    gb = GradientBoostingLearner(n_estimators=6, max_depth=3)
    gb.fit(X, y)
    leaves = gb.table.leaf_ids(category_codes(X))  # (rows, trees), trees in fit order
    raw = np.full(len(y), gb.init_score)
    for t in range(gb.n_estimators):
        prob = sigmoid(raw)
        residual, hessian = y - prob, prob * (1.0 - prob)
        for leaf in np.unique(leaves[:, t]).tolist():
            rows = leaves[:, t] == leaf
            step = math.fsum(residual[rows]) / max(math.fsum(hessian[rows]), 1e-12)
            assert gb.table.value[leaf] == pytest.approx(step, rel=1e-12, abs=0), (t, leaf)
        raw = raw + gb.learning_rate * gb.table.value[leaves[:, t]]


def test_levels_scored_in_runs_grow_the_same_trees(monkeypatch):
    # a level whose histogram and candidates exceed the cell budget is scored
    # a run of nodes at a time
    rng = np.random.default_rng(4)
    X = rng.integers(0, 4, size=(300, 5)).astype(np.float64)
    y = (rng.random(300) < 0.3 + 0.1 * X[:, 0]).astype(np.int64)
    residual = rng.normal(size=300)
    whole = [TreeGrower(X), TreeGrower(X)]
    whole[0].grow(y, "gini")
    whole[1].grow(residual, "friedman-mse", max_depth=6)
    monkeypatch.setattr(tree_module, "_LEVEL_CELLS", 1)
    runs = [TreeGrower(X), TreeGrower(X)]
    runs[0].grow(y, "gini")
    runs[1].grow(residual, "friedman-mse", max_depth=6)
    assert [g.table().record() for g in runs] == [g.table().record() for g in whole]


# -- random forests ---------------------------------------------------------


def _depth_first_forest(X, y, n_estimators=10, seed=42, min_samples_split=2) -> RandomForestLearner:
    """The forest the depth-first grower fitted: one tree at a time, each
    node drawing its features from the tree's stream in preorder."""
    codes = category_codes(X)
    n = X.shape[0]
    max_features = max(1, int(np.sqrt(X.shape[1])))
    trees = {column: [] for column in TREE_COLUMNS}
    for t in range(n_estimators):
        rng = np.random.default_rng([seed, t])
        sample = rng.integers(0, n, size=n)
        tree_oracle.grow(trees, codes[sample], y[sample], "gini", min_samples_split, max_features=max_features, rng=rng)
    forest = RandomForestLearner(n_estimators, seed, min_samples_split)
    forest.load_params(trees, X.shape[1])
    return forest


def test_the_depth_first_forest_is_the_forest_of_the_old_pin():
    # the RF pin of test_tree_pins before RF grew level by level
    ds = _digest_dataset()
    model = train(ClassifierSpec("RF"), ds)
    model.impl.load_params(_depth_first_forest(ds.codes.astype(np.float64), ds.y).params, len(ds.schema.features))
    doc = json.dumps(model_to_dict(model), sort_keys=True)
    assert hashlib.sha256(doc.encode()).hexdigest() == "5c2667b6cd38e12fa74654539af46a3222cf3d8c816a8fb51f016215edece3c0"


@pytest.mark.parametrize("t", [1, 3, 7])
def test_a_forest_is_the_first_trees_of_a_larger_forest(t):
    rng = np.random.default_rng(8)
    X = rng.integers(0, 3, size=(200, 9)).astype(np.float64)
    y = (rng.random(200) < 0.25 + 0.2 * (X[:, 1] == 2) + 0.2 * X[:, 4]).astype(np.int64)
    small, large = RandomForestLearner(n_estimators=t), RandomForestLearner(n_estimators=10)
    small.fit(X, y)
    large.fit(X, y)
    # the trees share levels, so their nodes interleave; tree by tree, in
    # preorder, the small forest is the first t trees of the large one
    assert [_tree(small.params, i) for i in range(t)] == [_tree(large.params, i) for i in range(t)]


def _tree(trees: dict, t: int) -> dict:
    """Tree *t* of a tree record, as a record of its own in preorder."""
    return tree_oracle.preorder({**trees, "roots": [trees["roots"][t]]})[0]


def _planted(seed, n):
    rng = np.random.default_rng(seed)
    X = rng.integers(0, 3, size=(n, 12)).astype(np.float64)
    signal = (X[:, 0] == 2) + (X[:, 3] > 0) + (X[:, 7] == 1) + 0.5 * (X[:, 9] == 0)
    y = (rng.random(n) < np.where(signal >= 1.5, 0.85, 0.15)).astype(np.int64)
    return X, y


def test_forest_accuracy_stays_within_two_points_of_the_depth_first_forest():
    new, old = [], []
    for seed in range(4):
        X, y = _planted(seed, 3000)
        train_X, train_y, test_X, test_y = X[:2000], y[:2000], X[2000:], y[2000:]
        forest = RandomForestLearner(seed=seed)
        forest.fit(train_X, train_y)
        for learner, out in ((forest, new), (_depth_first_forest(train_X, train_y, seed=seed), old)):
            out.append(float(((learner.score_rows(test_X) >= 0.5) == test_y).mean()))
    assert abs(np.mean(new) - np.mean(old)) <= 0.02, (new, old)


# -- large codes --------------------------------------------------------------


@pytest.mark.parametrize("learner", [DecisionTreeLearner, RandomForestLearner, GradientBoostingLearner])
def test_a_code_of_a_million_fits_in_little_memory_and_grows_the_same_trees(learner):
    rng = np.random.default_rng(6)
    X = rng.integers(0, 4, size=(400, 6)).astype(np.float64)
    y = (rng.random(400) < 0.2 + 0.2 * X[:, 2] / 3 + 0.3 * (X[:, 0] == 1)).astype(np.int64)
    wide = X.copy()
    wide[wide[:, 2] == 3, 2] = 1_000_000
    tracemalloc.start()
    big = learner()
    big.fit(wide, y)
    peak = tracemalloc.get_traced_memory()[1]
    tracemalloc.stop()
    # the depth-first grower's histograms were a million codes wide: 2 labels
    # x 6 features x 1,000,001 int64 cells, 96 MB at every node
    assert peak < 8 * 2**20, peak
    compact = learner()
    compact.fit(X, y)
    want = dict(compact.params)
    for column in ("left_values", "right_values"):
        want[column] = [
            [1_000_000 if (f == 2 and c == 3) else c for c in codes]
            for f, codes in zip(compact.params["feature"], compact.params[column])
        ]
    assert big.params == want
    assert big.score_rows(wide).tolist() == compact.score_rows(X).tolist()

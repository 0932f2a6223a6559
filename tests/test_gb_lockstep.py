"""Gradient boosting in lockstep: ``train_many`` fits GB on several feature
sets in one grower pass a round, and each model must be the one ``train``
fits on its set alone, to the last bit; a grower's default subset leaves a
forest's trees as they were. Elimination sends each equal-size group of GB
sets of a batch out as at most one task per worker, and a lockstep task that
fails fails alike in process and in the pool."""

from __future__ import annotations

import hashlib
import json
import os
from concurrent.futures import ProcessPoolExecutor

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from riskminer import elimination
from riskminer.classifiers import ClassifierSpec, model_to_dict, train, train_many
from riskminer.classifiers import boosting
from riskminer.classifiers import tree as tree_module
from riskminer.classifiers.boosting import GradientBoostingLearner
from riskminer.classifiers.forest import DecisionTreeLearner
from riskminer.cli import main
from riskminer.dataset import Dataset
from riskminer.schema import FeatureSpec, Schema
from test_parallel import _run, _usable_cpus, eliminate_shaped_doc
from test_tree_grower import _depth_first_forest, _tree


@st.composite
def problems(draw):
    """A dataset of 4-40 rows over 2-7 features, each over 1-4 codes from
    0-5 (so with gaps), some columns copies of earlier ones; both classes;
    and 2-5 feature sets of any sizes, each in any order."""
    n_rows = draw(st.integers(4, 40))
    columns, specs = [], []
    for j in range(draw(st.integers(2, 7))):
        if columns and draw(st.integers(0, 3)) == 0:  # a copy: the lowest-feature tie-break decides
            source = draw(st.integers(0, len(columns) - 1))
            columns.append(columns[source])
            specs.append(FeatureSpec(f"f{j}", "discrete", specs[source].values))
            continue
        codes = draw(st.lists(st.integers(0, 5), min_size=1, max_size=4, unique=True))
        columns.append(draw(st.lists(st.sampled_from(codes), min_size=n_rows, max_size=n_rows)))
        specs.append(FeatureSpec(f"f{j}", "discrete", tuple(sorted(codes))))
    labels = draw(st.lists(st.integers(0, 1), min_size=n_rows, max_size=n_rows).filter(lambda y: 0 < sum(y) < n_rows))
    schema = Schema(features=tuple(specs))
    names = st.sampled_from(schema.feature_names)
    sets = draw(st.lists(st.lists(names, min_size=1, max_size=len(specs), unique=True), min_size=2, max_size=5))
    return Dataset(schema, np.array(columns).T, labels), [tuple(f) for f in sets]


def _same_models(spec, ds, sets) -> None:
    together = train_many(spec, ds, sets)
    assert [model.features for model in together] == sets
    for features, model in zip(sets, together):
        assert model_to_dict(model) == model_to_dict(train(spec, ds, features)), features


@settings(max_examples=150, deadline=None)
@given(problems(), st.data())
def test_lockstep_models_are_the_models_of_one_fit_each(problem, data):
    ds, sets = problem
    spec = ClassifierSpec("GB", {
        "n_estimators": data.draw(st.integers(1, 6)),
        "max_depth": data.draw(st.integers(1, 4)),
        "learning_rate": data.draw(st.sampled_from([0.1, 0.5, 1.0])),
    })
    with pytest.MonkeyPatch.context() as patch:
        if data.draw(st.booleans()):  # levels scored in runs of nodes
            patch.setattr(tree_module, "_LEVEL_CELLS", 1)
        _same_models(spec, ds, sets)


def test_a_set_narrower_than_the_union_and_sets_of_unequal_size():
    rng = np.random.default_rng(3)
    specs = (FeatureSpec("a", "binary", (0, 1)), FeatureSpec("b", "binary", (0, 1)),
             FeatureSpec("c", "discrete", (0, 2, 3, 5)), FeatureSpec("d", "binary", (0, 1)))
    X = np.column_stack([rng.integers(0, 2, 120), rng.integers(0, 2, 120), rng.choice([0, 2, 3, 5], 120),
                         rng.integers(0, 2, 120)])
    y = (rng.random(120) < 0.2 + 0.3 * X[:, 0] + 0.2 * (X[:, 2] > 2)).astype(int)
    ds = Dataset(Schema(features=specs), X, y)
    # ("a", "b") has codes 0-1 only, where the union's widest feature has four
    sets = [("a", "b"), ("c", "d"), ("b", "d"), ("a", "b", "c"), ("a", "b"), ("d",)]
    _same_models(ClassifierSpec("GB", {"n_estimators": 12}), ds, sets)
    _same_models(ClassifierSpec("DT"), ds, sets)  # other kinds fit one set at a time


def _floats(value):
    """The Python floats in *value* and the lists, tuples and dicts it holds."""
    if isinstance(value, float):
        yield value
    elif isinstance(value, (list, tuple, dict)):
        for item in value.values() if isinstance(value, dict) else value:
            yield from _floats(item)


def test_a_lockstep_grower_holds_its_node_outputs_in_no_float_list(monkeypatch):
    growers = []

    class Kept(tree_module.TreeGrower):
        def __init__(self, *args, **kwargs):
            super().__init__(*args, **kwargs)
            growers.append(self)

    monkeypatch.setattr(boosting, "TreeGrower", Kept)
    rng = np.random.default_rng(11)
    X = rng.integers(0, 3, size=(80, 4)).astype(np.float64)
    y = (rng.random(80) < 0.3 + 0.2 * X[:, 0]).astype(np.int64)
    fits = GradientBoostingLearner(n_estimators=8).fit_sets(X, y, [[0, 1], [2, 3], [1, 3]])
    (grower,) = growers
    assert list(_floats(vars(grower))) == []
    assert grower.size == sum(fit.table.feature.size for fit in fits)  # every grown node is some fit's
    assert all(isinstance(fit.train_losses, np.ndarray) and fit.train_losses.shape == (9,) for fit in fits)


def test_a_forest_on_one_column_grows_the_trees_it_did():
    # one column: max_features = 1 draws nothing, so each of the ten trees
    # searches the grower's one default subset
    rng = np.random.default_rng(5)
    X = rng.choice([0, 2, 3], size=(60, 1))
    y = (rng.random(60) < 0.3 + 0.2 * (X[:, 0] == 2)).astype(int)
    model = train(ClassifierSpec("RF"), Dataset(Schema(features=(FeatureSpec("a", "discrete", (0, 2, 3)),)), X, y))
    oracle = _depth_first_forest(X.astype(np.float64), y)
    assert [_tree(model.impl.params, t) for t in range(10)] == [_tree(oracle.params, t) for t in range(10)]
    doc = json.dumps(model_to_dict(model), sort_keys=True)  # the bytes before trees took subsets
    assert hashlib.sha256(doc.encode()).hexdigest() == "aba93f60fe9a7fe8ce327232c93666bb30d3221b4e985e91b0710c623a7994c8"


# -- elimination sends each equal-size GB group out together ------------------------


def _pipeline(tmp_path, name: str) -> None:
    config = tmp_path / f"{name}.json"
    config.write_text(json.dumps(eliminate_shaped_doc()), encoding="utf-8")
    assert main(["pipeline", "--config", str(config), "--out", str(tmp_path / name)]) == 0


# eliminate_shaped_doc: six survivors down to four. The first batch holds the
# start set (6 features), the baseline (26) and step 1's six candidates (5);
# the second, step 2's five candidates (4).
CANDIDATE_SIZES = [5, 4]


def test_in_process_each_candidate_group_is_one_lockstep_fit(tmp_path, monkeypatch):
    _usable_cpus(monkeypatch, 2)
    calls = []  # the feature sets of every train_many call
    real_train_many = elimination.train_many

    def recording_train_many(spec, ds, sets):
        calls.append((spec.kind, sets))
        return real_train_many(spec, ds, sets)

    # a rebound function keeps the fits in this process
    monkeypatch.setattr(elimination, "train_many", recording_train_many)
    _pipeline(tmp_path, "in-process")
    assert [kind for kind, _ in calls] == ["GB", "GB"]
    assert [{len(f) for f in sets} for _, sets in calls] == [{size} for size in CANDIDATE_SIZES]
    assert [len(sets) for _, sets in calls] == [6, 5]


def test_the_pool_gets_each_candidate_group_as_one_task_per_worker(tmp_path, monkeypatch):
    _usable_cpus(monkeypatch, 2)
    batches = []  # the tasks of each batch
    real_map = ProcessPoolExecutor.map

    def recording_map(pool, fn, tasks, **kwargs):
        tasks = list(tasks)
        batches.append(tasks)
        return real_map(pool, fn, tasks, **kwargs)

    monkeypatch.setattr(ProcessPoolExecutor, "map", recording_map)
    _pipeline(tmp_path, "pool")
    assert len(batches) == 2
    for tasks, size in zip(batches, CANDIDATE_SIZES):
        lockstep = [sets for kind, sets in tasks if kind == "GB" and len(sets) > 1]
        assert len(lockstep) == 2  # one per worker
        assert sorted(len(sets) for sets in lockstep) == ([3, 3] if size == 5 else [2, 3])
        assert {len(f) for sets in lockstep for f in sets} == {size}
        one_fit_gb = [sets for kind, sets in tasks if kind == "GB" and len(sets) == 1]
        assert [len(f) for (f,) in one_fit_gb] == ([6, 26] if size == 5 else [])
        # every other learner keeps one task per (learner, set) pair
        assert all(len(sets) == 1 for kind, sets in tasks if kind != "GB")


# -- a failing lockstep task ------------------------------------------------------------


def test_a_failing_lockstep_fit_fails_alike_in_process_and_in_the_pool(tmp_path, monkeypatch, capsys):
    real_fit_sets = GradientBoostingLearner.fit_sets

    def failing_fit_sets(self, X, y, columns=None):
        if columns is not None:  # a lockstep group; a one-set fit passes none
            raise RuntimeError(f"GB fails on a group from columns {columns[0]}")
        return real_fit_sets(self, X, y, columns)

    def failing_candidate_tree_fit(self, X, y):
        raise RuntimeError("DT fails on a candidate")

    # patched before the fork, so the workers inherit it
    monkeypatch.setattr(GradientBoostingLearner, "fit_sets", failing_fit_sets)
    doc = eliminate_shaped_doc()
    seen = []
    for cpus in (1, 2):
        code, files = _run(tmp_path, monkeypatch, f"fail-{cpus}", doc, cpus)
        seen.append((code, capsys.readouterr().err, files))
    # in process one task holds all six candidates, in the pool each of two
    # chunks holds three; the first candidate's chunk reports, and it drops
    # feature 0 of the union
    assert seen[0] == seen[1]
    assert seen[0] == (4, "error: stage 'eliminate' failed: GB fails on a group from columns [1, 2, 3, 4, 5]\n", None)

    # DT comes before GB in the roster, so DT's error on the same candidate is the one reported
    real_tree_fit = DecisionTreeLearner.fit
    monkeypatch.setattr(DecisionTreeLearner, "fit", lambda self, X, y: (
        failing_candidate_tree_fit(self, X, y) if X.shape[1] == 5 else real_tree_fit(self, X, y)))
    seen = []
    for cpus in (1, 2):
        code, files = _run(tmp_path, monkeypatch, f"fail-dt-{cpus}", doc, cpus)
        seen.append((code, capsys.readouterr().err, files))
    assert seen[0] == seen[1] == (4, "error: stage 'eliminate' failed: DT fails on a candidate\n", None)


def test_a_worker_that_dies_in_a_lockstep_task_fails_the_run(tmp_path, monkeypatch, capsys):
    parent = os.getpid()
    real_fit_sets = GradientBoostingLearner.fit_sets

    def dying_fit_sets(self, X, y, columns=None):
        if columns is not None and os.getpid() != parent:
            os._exit(1)  # as the OOM killer or a segfault would end the worker
        return real_fit_sets(self, X, y, columns)

    monkeypatch.setattr(GradientBoostingLearner, "fit_sets", dying_fit_sets)
    code, files = _run(tmp_path, monkeypatch, "dies", eliminate_shaped_doc(), 2)
    assert (code, files) == (4, None)
    err = capsys.readouterr().err
    assert err.startswith("error: stage 'eliminate' failed: ") and "terminated abruptly" in err

"""Validation scores the models that elimination trained: no (learner,
feature set) pair is trained twice in a run, in this process or in the
worker pool, and the pipeline's output bytes for a roster without LR are
pinned.

The counting tests rebind ``train`` in this process and give it one usable
CPU, so that the fits run in this process: there a model's identity says
which fit made it. The pool test gives it two CPUs and counts the tasks the
pool is sent and the models it sends back.
"""

from __future__ import annotations

import hashlib
import json
import os
import sys
from concurrent.futures import ProcessPoolExecutor

from riskminer import cli, pipeline
from riskminer.classifiers import train as real_train
from riskminer.dataset import split_dataset as real_split_dataset
from riskminer.elimination import validate as real_validate
from riskminer.pipeline import config_from_dict, run_pipeline
from riskminer.schema import FeatureSpec, Schema, save_schema


def small_doc(learners):
    return {
        "seed": 11,
        "generator": {
            "n_records": 420,
            "class_balance": 0.5,
            "seed": 3,
            "planted_factors": [
                {"feature": "weak-password", "value": 1, "victim_prob": 0.88},
                {"feature": "compulsive-buyer", "value": 1, "victim_prob": 0.88},
            ],
            "planted_rule": {
                "factors": [
                    ["clicked-on-spam-email-links", 1],
                    ["download-unauthorized-software", 1],
                ],
                "victim_prob": 0.9,
                "coverage": 0.4,
            },
        },
        "learners": learners,
        "elimination": {"min_size": 2},
        "apriori": {"min_support": 0.25, "min_confidence": 0.8},
    }


def _rebind(monkeypatch, original, replacement):
    """Point every riskminer module attribute that holds *original* at
    *replacement*, so the ``from .x import f`` copies see it too."""
    for name, module in list(sys.modules.items()):
        if name == "riskminer" or name.startswith("riskminer."):
            for key, value in list(vars(module).items()):
                if value is original:
                    monkeypatch.setattr(module, key, replacement)


def _usable_cpus(monkeypatch, count: int) -> None:
    monkeypatch.setattr(os, "sched_getaffinity", lambda pid: set(range(count)), raising=False)


def test_each_model_is_trained_once_and_validation_scores_elimination_models(monkeypatch):
    _usable_cpus(monkeypatch, 1)
    trained = {}  # (kind, features) -> models

    def counting_train(spec, ds, features=None):
        model = real_train(spec, ds, features)
        trained.setdefault((spec.kind, model.features), []).append(model)
        return model

    bundles = []

    def recording_split_dataset(*args, **kwargs):
        bundles.append(real_split_dataset(*args, **kwargs))
        return bundles[-1]

    validated = []  # (model, dataset) of every validate call

    def recording_validate(model, ds, positive):
        validated.append((model, ds))
        return real_validate(model, ds, positive)

    _rebind(monkeypatch, real_train, counting_train)
    _rebind(monkeypatch, real_split_dataset, recording_split_dataset)
    _rebind(monkeypatch, real_validate, recording_validate)

    report = run_pipeline(config_from_dict(small_doc(["DT", "GNB", "LR"])))
    assert len(report.survivors) < 26  # the baseline is a set of its own
    repeated = {key: len(models) for key, models in trained.items() if len(models) > 1}
    assert repeated == {}
    selected = tuple(report.best["features"])
    (splits,) = bundles
    scored = [model for model, ds in validated if ds is splits.validation]
    assert sorted(model.kind for model in scored) == ["DT", "GNB", "LR"]
    for model in scored:
        assert model is trained[(model.kind, selected)][0]


def _digest(out_dir) -> str:
    """sha256 over the output directory's file names and bytes, with the
    ``warnings`` lists left out of report.json's validation entries."""
    h = hashlib.sha256()
    for path in sorted(out_dir.iterdir()):
        data = path.read_bytes()
        if path.name == "report.json":
            doc = json.loads(data)
            for entry in doc["validation"].values():
                entry.pop("warnings", None)
            data = (json.dumps(doc, sort_keys=True, indent=2) + "\n").encode()
        h.update(path.name.encode() + b"\0" + data + b"\0")
    return h.hexdigest()


# recorded when validation re-trained every learner on the selected set, and
# re-recorded when the config echo dropped the hyperparameters no learner reads
# and ROC points became plain floats, and again when the config echo lost
# ``smote.seed`` (no other byte changed), and again when SVC moved to the
# second-order SMO solver (its AUCs and ROC scores changed, and with SVC's AUC
# the best learner, which ties on accuracy with GNB)
NO_LR_PIPELINE_SHA256 = "c79ee229afa97e030caa792c04bdf13bac682351b4a7343d9ed2c968f1bb668a"


def test_pipeline_output_without_lr_matches_pin(tmp_path):
    config = tmp_path / "config.json"
    config.write_text(json.dumps(small_doc(["RF", "DT", "SVC", "GB", "GNB"])))
    out = tmp_path / "out"
    assert cli.main(["pipeline", "--config", str(config), "--out", str(out)]) == 0
    assert _digest(out) == NO_LR_PIPELINE_SHA256


def test_no_model_is_trained_twice_when_every_feature_survives(monkeypatch, tmp_path):
    _usable_cpus(monkeypatch, 1)
    trained = {}

    def counting_train(spec, ds, features=None):
        model = real_train(spec, ds, features)
        trained[(spec.kind, model.features)] = trained.get((spec.kind, model.features), 0) + 1
        return model

    _rebind(monkeypatch, real_train, counting_train)
    doc = small_doc(["DT", "GNB", "LR"])
    planted = [f["feature"] for f in doc["generator"]["planted_factors"]]
    planted += [f for f, _ in doc["generator"]["planted_rule"]["factors"]]
    schema = Schema(features=tuple(FeatureSpec(name, "binary", (0, 1)) for name in planted))
    save_schema(schema, tmp_path / "schema.json")
    doc["schema"] = str(tmp_path / "schema.json")
    doc["elimination"] = {"min_size": 2}
    report = run_pipeline(config_from_dict(doc))
    assert report.survivors == schema.feature_names  # the baseline set is the first step's
    assert {key: n for key, n in trained.items() if n > 1} == {}


def test_the_pool_fits_each_pair_once_and_validation_scores_the_models_it_sent_back(monkeypatch):
    _usable_cpus(monkeypatch, 2)  # two workers on any machine
    sent = []  # (kind, features) of every task the pool is given
    batches = []  # the number of tasks of each batch
    returned = {}  # (kind, features) -> the model the pool sent back
    real_map = ProcessPoolExecutor.map

    def recording_map(pool, fn, tasks, **kwargs):
        tasks = list(tasks)
        sent.extend(tasks)
        batches.append(len(tasks))
        for task, result in zip(tasks, real_map(pool, fn, tasks, **kwargs)):
            returned[task] = result[2]
            yield result

    validated = []

    def recording_validate(model, ds, positive):
        validated.append(model)
        return real_validate(model, ds, positive)

    monkeypatch.setattr(ProcessPoolExecutor, "map", recording_map)
    # only the pipeline's copy: a rebound elimination function would keep the fits in this process
    monkeypatch.setattr(pipeline, "validate", recording_validate)
    report = run_pipeline(config_from_dict(small_doc(["DT", "GNB", "LR"])))
    n = len(report.survivors)
    assert 2 < n < 26
    assert len(set(sent)) == len(sent)
    # the start set, the baseline and step 1's candidates, then one step's candidates a batch
    assert batches == [(2 + n) * 3] + [size * 3 for size in range(n - 1, 2, -1)]
    selected = tuple(report.best["features"])
    assert sorted(model.kind for model in validated) == ["DT", "GNB", "LR"]
    for model in validated:
        assert model is returned[(model.kind, selected)]

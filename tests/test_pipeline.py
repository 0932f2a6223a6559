"""Pipeline orchestration: stage wiring, determinism, report emission."""

from __future__ import annotations

import json
import re
from pathlib import Path

import pytest

from riskminer.errors import ConfigError, StageError
from riskminer.metrics import ConfusionMatrix
from riskminer.pipeline import (
    PipelineConfig,
    config_echo,
    config_from_dict,
    confusion_csv,
    emit_report,
    run_pipeline,
)


def small_config_doc(seed=11):
    return {
        "seed": seed,
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
        "learners": ["DT", "GNB"],
        "elimination": {"min_size": 2},
        "apriori": {"min_support": 0.25, "min_confidence": 0.8},
    }


def test_readme_config_block_is_the_echo_of_itself():
    # every key the README lists is read, with the default it shows
    readme = (Path(__file__).parents[1] / "README.md").read_text(encoding="utf-8")
    block = readme.split("### Config file", 1)[1].split("```jsonc\n", 1)[1].split("```", 1)[0]
    doc = json.loads(re.sub(r"//.*", "", block))
    del doc["input"]  # the block shows both data sources
    echo = config_echo(config_from_dict(doc))
    assert echo == {**{k: v for k, v in doc.items() if k != "schema"}, "input": None}


def test_readme_library_imports_resolve():
    # a name that the package stops exporting fails here, so the README cannot go stale
    readme = (Path(__file__).parents[1] / "README.md").read_text(encoding="utf-8")
    block = readme.split("## Library use", 1)[1].split("```python\n", 1)[1].split("```", 1)[0]
    assert block.startswith("from riskminer import (")
    exec(block, {})


def test_config_requires_exactly_one_source():
    with pytest.raises(ConfigError):
        PipelineConfig(input_path=None, generator=None)
    with pytest.raises(ConfigError):
        config_from_dict({"learners": ["DT"]})


def test_config_rejects_bad_learner_lists():
    with pytest.raises(ConfigError):
        config_from_dict({**small_config_doc(), "learners": []})
    with pytest.raises(ConfigError):
        config_from_dict({**small_config_doc(), "learners": ["DT", "DT"]})
    with pytest.raises(ConfigError):
        config_from_dict({**small_config_doc(), "learners": ["nope"]})
    with pytest.raises(ConfigError):
        config_from_dict({**small_config_doc(), "ratios": [0.5, 0.5]})


def test_pipeline_report_contents():
    report = run_pipeline(config_from_dict(small_config_doc()))
    n = sum(report.split_sizes.values())  # the SMOTE-balanced total
    assert n >= 420
    assert report.split_sizes["train"] == int(n * 0.75)
    assert report.split_sizes["test"] == int(n * 0.175)
    assert set(report.validation) == {"DT", "GNB"}
    assert report.best["learner"] in ("DT", "GNB")
    assert report.elimination_rows[0]["baseline"] is True
    assert report.elimination_rows[0]["n_features"] == 26
    doc = report.to_dict()
    assert doc["confusion"]["tp"] + doc["confusion"]["fn"] + doc["confusion"]["fp"] + doc[
        "confusion"
    ]["tn"] == report.split_sizes["validation"]
    assert doc["config"]["seed"] == 11
    json.dumps(doc)  # must be serializable as-is


def test_pipeline_deterministic_and_emission_idempotent(tmp_path):
    doc = small_config_doc()
    report_a = run_pipeline(config_from_dict(doc))
    report_b = run_pipeline(config_from_dict(doc))
    dir_a = tmp_path / "a"
    dir_b = tmp_path / "b"
    files_a = emit_report(report_a, str(dir_a))
    files_b = emit_report(report_b, str(dir_b))
    assert [f.split("/")[-1] for f in files_a] == [f.split("/")[-1] for f in files_b]
    for fa, fb in zip(files_a, files_b):
        assert open(fa, "rb").read() == open(fb, "rb").read()
    # re-emitting into the same directory reproduces identical bytes
    before = {f: open(f, "rb").read() for f in files_a}
    emit_report(report_a, str(dir_a))
    for f, blob in before.items():
        assert open(f, "rb").read() == blob


def test_pipeline_seed_changes_report():
    base = run_pipeline(config_from_dict(small_config_doc(seed=11)))
    other = run_pipeline(config_from_dict(small_config_doc(seed=12)))
    assert base.to_dict() != other.to_dict()


def test_pipeline_stage_error_naming():
    doc = small_config_doc()
    doc["generator"] = None
    doc["input"] = "/nonexistent/data.csv"
    with pytest.raises(StageError) as err:
        run_pipeline(config_from_dict(doc))
    assert err.value.stage == "load"


def test_confusion_csv_matches_validation_matrix_shape():
    cm = ConfusionMatrix(tp=115, fn=3, fp=7, tn=122, positive=0)
    text = confusion_csv(cm)
    assert text.splitlines() == [
        ",predicted_non-victim,predicted_victim",
        "actual_non-victim,115,3",
        "actual_victim,7,122",
    ]


def test_emit_report_file_set(tmp_path):
    report = run_pipeline(config_from_dict(small_config_doc()))
    files = emit_report(report, str(tmp_path / "out"))
    names = sorted(f.split("/")[-1] for f in files)
    assert names == sorted(
        [
            "report.json",
            "ranking.csv",
            "elimination.csv",
            "metrics.csv",
            "roc_DT.csv",
            "roc_GNB.csv",
            "rules.csv",
            "confusion.csv",
        ]
    )
    ranking = (tmp_path / "out" / "ranking.csv").read_text().splitlines()
    assert ranking[0] == "feature,p_value,keep"
    assert len(ranking) == 27
    # p-values ascend down the ranking
    ps = [float(line.split(",")[1]) for line in ranking[1:]]
    assert ps == sorted(ps)
    metrics = (tmp_path / "out" / "metrics.csv").read_text().splitlines()
    assert metrics[0] == "learner,class,precision,recall,f1,support,accuracy_pct,weighted_f1,auc"
    assert len(metrics) == 1 + 2 * 2  # two learners x two classes
    for kind in ("DT", "GNB"):
        roc = (tmp_path / "out" / f"roc_{kind}.csv").read_text().splitlines()
        assert roc[0] == "threshold,fpr,tpr"
        for line in roc[1:]:
            assert len([float(cell) for cell in line.split(",")]) == 3, line

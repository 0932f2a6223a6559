"""CLI subcommands: exit codes, file outputs, and composition parity."""

from __future__ import annotations

import json
import os

import pytest

from riskminer.cli import main
from riskminer.schema import FeatureSpec, Schema, save_schema
from test_pipeline import small_config_doc


@pytest.fixture
def config_path(tmp_path):
    path = tmp_path / "config.json"
    path.write_text(json.dumps(small_config_doc()), encoding="utf-8")
    return str(path)


def test_pipeline_command_writes_report(config_path, tmp_path, capsys):
    out = tmp_path / "out"
    assert main(["pipeline", "--config", config_path, "--out", str(out)]) == 0
    assert (out / "report.json").exists()
    assert "best:" in capsys.readouterr().out


def test_exit_code_config_error(tmp_path, capsys):
    bad = tmp_path / "bad.json"
    bad.write_text("{not json", encoding="utf-8")
    assert main(["pipeline", "--config", str(bad), "--out", str(tmp_path / "o")]) == 2
    empty = tmp_path / "empty.json"
    empty.write_text("{}", encoding="utf-8")
    assert main(["pipeline", "--config", str(empty), "--out", str(tmp_path / "o")]) == 2


def test_exit_code_data_error(tmp_path):
    missing = str(tmp_path / "missing.csv")
    assert main(["rank", "--input", missing, "--out", str(tmp_path / "r.csv")]) == 3
    bad = tmp_path / "bad.csv"
    bad.write_text("a,b\n1,2\n", encoding="utf-8")
    assert main(["rank", "--input", str(bad), "--out", str(tmp_path / "r.csv")]) == 3


def test_exit_code_stage_failure(tmp_path):
    doc = small_config_doc()
    doc["generator"]["planted_factors"] = []
    doc["generator"]["planted_rule"] = None
    doc["generator"]["n_records"] = 40
    doc["alpha"] = 1e-12  # nothing survives the filter -> stage failure
    cfg = tmp_path / "cfg.json"
    cfg.write_text(json.dumps(doc), encoding="utf-8")
    assert main(["pipeline", "--config", cfg.as_posix(), "--out", str(tmp_path / "o")]) == 4


@pytest.fixture(scope="module")
def inputs(tmp_path_factory):
    """A config, the dataset it generates and a model trained on it."""
    root = tmp_path_factory.mktemp("inputs")
    config, data, model = root / "config.json", root / "data.csv", root / "model.json"
    config.write_text(json.dumps(small_config_doc()), encoding="utf-8")
    assert main(["generate", "--config", str(config), "--out", str(data)]) == 0
    assert main(["train", "--input", str(data), "--learner", "GNB", "--out", str(model)]) == 0
    return {"config": str(config), "data": str(data), "model": str(model)}


READ_ARGS = {
    "generate": ["--config", "{config}"],
    "augment": ["--input", "{data}"],
    "rank": ["--input", "{data}"],
    "eliminate": ["--input", "{data}", "--learners", "GNB", "--min-size", "24"],
    "train": ["--input", "{data}", "--learner", "GNB"],
    "evaluate": ["--input", "{data}", "--model", "{model}"],
    "mine": ["--input", "{data}"],
    "pipeline": ["--config", "{config}"],
}


@pytest.mark.parametrize("command", list(READ_ARGS))
def test_an_output_that_cannot_be_written_is_a_data_error(inputs, tmp_path, capsys, command):
    missing = tmp_path / "missing"
    if command == "pipeline":  # it makes a missing parent, so its output goes under a file
        missing.write_text("", encoding="utf-8")
    argv = [command, *(arg.format(**inputs) for arg in READ_ARGS[command]), "--out", str(missing / "out")]
    assert main(argv) == 3
    err = capsys.readouterr().err
    assert err.startswith("error: ") and err.count("\n") == 1 and "Traceback" not in err


def test_generate_refuses_a_factor_planted_on_a_one_code_feature(tmp_path, capsys):
    schema = Schema(features=(FeatureSpec("x", "discrete", (1,)), FeatureSpec("z", "binary", (0, 1))))
    save_schema(schema, tmp_path / "schema.json")
    doc = {"schema": str(tmp_path / "schema.json"), "generator": {
        "n_records": 20, "planted_factors": [{"feature": "x", "value": 1, "victim_prob": 0.8}]}}
    (tmp_path / "config.json").write_text(json.dumps(doc), encoding="utf-8")
    assert main(["generate", "--config", str(tmp_path / "config.json"), "--out", str(tmp_path / "data.csv")]) == 2
    err = capsys.readouterr().err
    assert err.startswith("config error:") and err.count("\n") == 1, err


def test_pipeline_refuses_two_factors_planted_on_one_feature(tmp_path, capsys):
    doc = small_config_doc()
    doc["generator"]["planted_factors"] = [
        {"feature": "weak-password", "value": 1, "victim_prob": 0.9},
        {"feature": "weak-password", "value": 0, "victim_prob": 0.2},
    ]
    cfg = tmp_path / "cfg.json"
    cfg.write_text(json.dumps(doc), encoding="utf-8")
    out = tmp_path / "o"
    assert main(["pipeline", "--config", str(cfg), "--out", str(out)]) == 2
    err = capsys.readouterr().err
    assert err.startswith("config error:") and err.count("\n") == 1, err
    assert "weak-password" in err and not out.exists()


def test_train_fits_a_forest_on_one_feature(config_path, tmp_path):
    data, model = tmp_path / "data.csv", tmp_path / "model.json"
    assert main(["generate", "--config", config_path, "--out", str(data)]) == 0
    assert main(["train", "--input", str(data), "--learner", "RF", "--features", "weak-password",
                 "--out", str(model)]) == 0
    doc = json.loads(model.read_text())
    assert doc["features"] == ["weak-password"]


@pytest.mark.parametrize("command, value", [("train", ""), ("mine", ""), ("train", " "), ("mine", ",")])
def test_an_empty_feature_list_is_a_config_error(inputs, tmp_path, capsys, command, value):
    out = tmp_path / "out"
    argv = [command, *(arg.format(**inputs) for arg in READ_ARGS[command]), "--features", value, "--out", str(out)]
    assert main(argv) == 2
    err = capsys.readouterr().err
    assert err.startswith("config error:") and err.count("\n") == 1, err
    assert not out.exists()


def test_mine_refuses_a_feature_without_factors(inputs, tmp_path, capsys):
    # gender is a schema feature outside the factor catalog: it has nothing to mine
    out = tmp_path / "rules.csv"
    argv = ["mine", "--input", inputs["data"], "--features", "weak-password,gender", "--out", str(out)]
    assert main(argv) == 2
    err = capsys.readouterr().err
    assert err.startswith("config error:") and err.count("\n") == 1, err
    assert "gender" in err and "weak-password" not in err
    assert not out.exists()


def test_an_empty_features_file_path_is_a_config_error(inputs, tmp_path, capsys):
    out = tmp_path / "model.json"
    assert main(["train", "--input", inputs["data"], "--learner", "GNB", "--features-file", "", "--out", str(out)]) == 2
    assert capsys.readouterr().err.startswith("config error:")
    assert not out.exists()


def test_train_takes_features_or_a_features_file_not_both(inputs, tmp_path, capsys):
    selection = tmp_path / "selection.json"
    selection.write_text(json.dumps({"final_selection": ["weak-password"]}), encoding="utf-8")
    out = tmp_path / "model.json"
    with pytest.raises(SystemExit) as exc:
        main(["train", "--input", inputs["data"], "--learner", "GNB", "--features", "accessed-VPN",
              "--features-file", str(selection), "--out", str(out)])
    assert exc.value.code == 2
    assert "not allowed with argument" in capsys.readouterr().err
    assert not out.exists()


def test_seed_order_is_flag_then_config_then_42(config_path, tmp_path, monkeypatch):
    monkeypatch.setenv("RISKMINER_SEED", "5")  # not a setting: it must change nothing
    doc = small_config_doc(seed=11)
    del doc["seed"]
    no_seed = tmp_path / "noseed.json"
    no_seed.write_text(json.dumps(doc), encoding="utf-8")
    seeds = {}
    for name, argv in {"default": ["--config", str(no_seed)], "config": ["--config", config_path],
                       "flag": ["--config", config_path, "--seed", "9"]}.items():
        assert main(["pipeline", *argv, "--out", str(tmp_path / name)]) == 0
        seeds[name] = json.loads((tmp_path / name / "report.json").read_text())["config"]["seed"]
    assert seeds == {"default": 42, "config": 11, "flag": 9}

    data = tmp_path / "data.csv"
    assert main(["generate", "--config", config_path, "--out", str(data)]) == 0
    augmented = {}
    for name, argv in {"default": [], "42": ["--seed", "42"], "5": ["--seed", "5"]}.items():
        out = tmp_path / f"augmented-{name}.csv"
        assert main(["augment", "--input", str(data), "--target-total", "500", *argv, "--out", str(out)]) == 0
        augmented[name] = out.read_bytes()
    assert augmented["default"] == augmented["42"] != augmented["5"]


def test_generate_seed_outranks_the_generators_own(tmp_path):
    outputs = {}
    for name, seed, argv in [("config", 7, []), ("flag", 7, ["--seed", "5"]), ("config 5", 5, [])]:
        config, out = tmp_path / f"{name}.json", tmp_path / f"{name}.csv"
        config.write_text(json.dumps({"generator": {"n_records": 50, "seed": seed}}), encoding="utf-8")
        assert main(["generate", "--config", str(config), *argv, "--out", str(out)]) == 0
        outputs[name] = out.read_bytes()
    assert outputs["flag"] == outputs["config 5"] != outputs["config"]


def test_generate_with_a_seed_still_needs_a_generator_section(tmp_path, capsys):
    config = tmp_path / "config.json"
    config.write_text(json.dumps({"input": "data.csv"}), encoding="utf-8")
    assert main(["generate", "--config", str(config), "--seed", "5", "--out", str(tmp_path / "data.csv")]) == 2
    assert capsys.readouterr().err == "config error: config has no 'generator' section\n"


@pytest.mark.parametrize("command", ["train", "mine", "rank", "augment"])
def test_an_empty_dataset_is_a_data_error(inputs, tmp_path, capsys, command):
    with open(inputs["data"], encoding="utf-8") as f:
        header = f.readline()
    empty, out = tmp_path / "empty.csv", tmp_path / "out"
    empty.write_text(header, encoding="utf-8")
    argv = [command, *(arg.format(data=empty) for arg in READ_ARGS[command]), "--out", str(out)]
    assert main(argv) == 3
    err = capsys.readouterr().err
    assert err.startswith("data error:") and err.count("\n") == 1, err
    assert not out.exists()


def _header_only(inputs, tmp_path):
    """A CSV that holds the generated data's header line and no record."""
    with open(inputs["data"], encoding="utf-8") as f:
        header = f.readline()
    empty = tmp_path / "empty.csv"
    empty.write_text(header, encoding="utf-8")
    return empty


def test_augment_to_a_total_of_an_empty_dataset_is_a_data_error(inputs, tmp_path, capsys):
    out = tmp_path / "out.csv"
    argv = ["augment", "--input", str(_header_only(inputs, tmp_path)), "--no-balance", "--target-total", "10",
            "--out", str(out)]
    assert main(argv) == 3
    assert capsys.readouterr().err == "data error: cannot augment an empty dataset\n"
    assert not out.exists()


def test_pipeline_on_an_empty_input_fails_in_the_augment_stage(inputs, tmp_path, capsys):
    config, out = tmp_path / "config.json", tmp_path / "out"
    config.write_text(json.dumps({"input": str(_header_only(inputs, tmp_path))}), encoding="utf-8")
    assert main(["pipeline", "--config", str(config), "--out", str(out)]) == 3
    assert capsys.readouterr().err == "error: stage 'augment' failed: cannot augment an empty dataset\n"
    assert not out.exists()


@pytest.mark.parametrize("balance", ["--balance", "--no-balance"])
def test_a_target_total_below_the_row_count_names_the_setting(inputs, tmp_path, capsys, balance):
    # the 420 generated rows, whatever their classes
    argv = ["augment", "--input", inputs["data"], balance, "--target-total", "10", "--out", str(tmp_path / "a.csv")]
    assert main(argv) == 2
    assert capsys.readouterr().err == "config error: smote.target_total 10 is below the row count 420\n"


@pytest.mark.parametrize("flag, value", [("--alpha", "0.1"), ("--learners", "DT"), ("--min-support", "0.3"),
                                         ("--min-confidence", "0.5")])
def test_pipeline_takes_its_settings_from_the_config_only(tmp_path, capsys, flag, value):
    doc = {**small_config_doc(), "apriori": None}
    path = tmp_path / "config.json"
    path.write_text(json.dumps(doc), encoding="utf-8")
    with pytest.raises(SystemExit) as exc:
        main(["pipeline", "--config", str(path), flag, value, "--out", str(tmp_path / "out")])
    assert exc.value.code == 2
    err = capsys.readouterr().err
    assert "unrecognized arguments" in err and "Traceback" not in err


def test_stage_composition_matches_pipeline(config_path, tmp_path):
    """generate -> augment -> rank/eliminate/mine reproduces pipeline files."""
    out = tmp_path / "pipe"
    assert main(["pipeline", "--config", config_path, "--out", str(out)]) == 0
    report = json.loads((out / "report.json").read_text())
    seed = str(report["config"]["seed"])

    data = tmp_path / "data.csv"
    assert main(["generate", "--config", config_path, "--out", str(data)]) == 0
    aug = tmp_path / "aug.csv"
    assert main(["augment", "--input", str(data), "--seed", seed, "--out", str(aug)]) == 0

    ranking = tmp_path / "ranking.csv"
    assert main(["rank", "--input", str(aug), "--out", str(ranking)]) == 0
    assert ranking.read_bytes() == (out / "ranking.csv").read_bytes()

    elim = tmp_path / "elim.csv"
    selection = tmp_path / "selection.json"
    assert (
        main(
            [
                "eliminate",
                "--input",
                str(aug),
                "--seed",
                seed,
                "--learners",
                "DT,GNB",
                "--min-size",
                "2",
                "--out",
                str(elim),
                "--selection",
                str(selection),
            ]
        )
        == 0
    )
    assert elim.read_bytes() == (out / "elimination.csv").read_bytes()

    rules = tmp_path / "rules.csv"
    assert (
        main(
            [
                "mine",
                "--input",
                str(aug),
                "--features",
                ",".join(report["best"]["features"]),
                "--out",
                str(rules),
            ]
        )
        == 0
    )
    assert rules.read_bytes() == (out / "rules.csv").read_bytes()


def test_train_and_evaluate_round_trip(config_path, tmp_path):
    data = tmp_path / "data.csv"
    assert main(["generate", "--config", config_path, "--out", str(data)]) == 0
    model = tmp_path / "model.json"
    assert (
        main(
            [
                "train",
                "--input",
                str(data),
                "--learner",
                "DT",
                "--features",
                "weak-password,compulsive-buyer",
                "--out",
                str(model),
            ]
        )
        == 0
    )
    metrics = tmp_path / "metrics.json"
    roc = tmp_path / "roc.csv"
    assert (
        main(
            [
                "evaluate",
                "--model",
                str(model),
                "--input",
                str(data),
                "--out",
                str(metrics),
                "--roc",
                str(roc),
            ]
        )
        == 0
    )
    doc = json.loads(metrics.read_text())
    assert doc["model"] == "DT"
    assert 0.0 <= doc["accuracy"] <= 1.0
    assert set(doc["per_class"]) == {"0", "1"}
    assert roc.read_text().splitlines()[0] == "threshold,fpr,tpr"


def test_mine_high_support_yields_header_only(config_path, tmp_path):
    data = tmp_path / "data.csv"
    assert main(["generate", "--config", config_path, "--out", str(data)]) == 0
    rules = tmp_path / "rules.csv"
    assert (
        main(
            [
                "mine",
                "--input",
                str(data),
                "--min-support",
                "0.999",
                "--out",
                str(rules),
            ]
        )
        == 0
    )
    assert rules.read_text() == "antecedent_ids,antecedent,consequent,support,confidence,lift\n"


def test_cli_pipeline_determinism_across_out_dirs(config_path, tmp_path):
    out_a = tmp_path / "a"
    out_b = tmp_path / "b"
    assert main(["pipeline", "--config", config_path, "--out", str(out_a)]) == 0
    assert main(["pipeline", "--config", config_path, "--out", str(out_b)]) == 0
    for name in sorted(os.listdir(out_a)):
        assert (out_a / name).read_bytes() == (out_b / name).read_bytes()

"""Report emission is all-or-nothing, and the CLI exits with its documented
codes (0, 2, 3, 4) on malformed argument values, never with a traceback."""

from __future__ import annotations

import contextlib
import io
import json

import pytest
from hypothesis import HealthCheck, given, settings
from hypothesis import strategies as st

from riskminer import pipeline
from riskminer.classifiers import ClassifierSpec, model_to_dict, train
from riskminer.cli import main
from riskminer.errors import ConfigError, StageError
from riskminer.dataset import load_dataset, write_csv
from riskminer.generate import GenSpec, PlantedFactor, generate_synthetic
from riskminer.pipeline import config_from_dict, emit_report, run_pipeline
from riskminer.schema import FeatureSpec, Schema, load_schema, save_schema
from test_pipeline import small_config_doc


def test_failed_emission_leaves_no_report_and_no_temporary_directory(tmp_path, monkeypatch):
    report = run_pipeline(config_from_dict(small_config_doc()))
    real_write = pipeline.write_text
    calls = []

    def failing_write(path, text):
        calls.append(path)
        if len(calls) == 3:
            raise OSError("disk full")
        real_write(path, text)

    monkeypatch.setattr(pipeline, "write_text", failing_write)
    parent = tmp_path / "reports"
    parent.mkdir()
    with pytest.raises((OSError, StageError)):
        emit_report(report, str(parent / "out"))
    assert len(calls) == 3
    assert list(parent.iterdir()) == []


def test_emission_into_an_existing_directory_keeps_other_files(tmp_path):
    report = run_pipeline(config_from_dict(small_config_doc()))
    out = tmp_path / "out"
    out.mkdir()
    (out / "notes.txt").write_text("kept", encoding="utf-8")
    written = emit_report(report, str(out))
    assert sorted(p.name for p in out.iterdir()) == sorted(["notes.txt"] + [p.split("/")[-1] for p in written])
    assert sorted(p.name for p in tmp_path.iterdir()) == ["out"]


def test_config_alpha_outside_the_open_unit_interval_is_rejected_when_parsed():
    for alpha in (0.0, 1.0, 2.0, -0.5, float("nan")):
        with pytest.raises(ConfigError):
            config_from_dict({**small_config_doc(), "alpha": alpha})


# -- CLI exit codes ---------------------------------------------------------

FEATURES = ("weak-password", "compulsive-buyer", "shared-email-access", "clicked-on-spam-email-links")


@pytest.fixture(scope="module")
def files(tmp_path_factory):
    """A four-feature schema, 80 planted records, and a config over them."""
    root = tmp_path_factory.mktemp("cli")
    schema = Schema(features=tuple(FeatureSpec(name, "binary", (0, 1)) for name in FEATURES))
    save_schema(schema, root / "schema.json")
    planted = tuple(PlantedFactor(name, 1, 0.85) for name in FEATURES[:2])
    write_csv(generate_synthetic(GenSpec(n_records=80, planted_factors=planted, seed=5, schema=schema)),
              root / "data.csv")
    config = {"input": str(root / "data.csv"), "schema": str(root / "schema.json"), "learners": ["DT", "GNB"],
              "elimination": {"min_size": 1}}
    (root / "config.json").write_text(json.dumps(config), encoding="utf-8")
    (root / "model-v1.json").write_text(json.dumps({"format_version": 1}), encoding="utf-8")
    (root / "model-list.json").write_text("[1]", encoding="utf-8")
    (root / "latin-1.json").write_bytes('{"final_selection": ["caf\xe9"]}'.encode("latin-1"))
    return root


NUMBERS = st.one_of(
    st.sampled_from(["0", "1", "-1", "0.5", "1e-9", "2", "nan", "inf", "-inf", "x", "", "1,2", "3000"]),
    st.floats(allow_nan=True, allow_infinity=True).map(repr),
    st.integers(-5, 400).map(str),
)
NAMES = st.sampled_from(["DT", "GNB", "DT,GNB", "DT,DT", "nope", "", " ", ",", "weak-password",
                         "weak-password,nosuch", "nosuch", "age-range", "weak-password,,compulsive-buyer"])
JSON_VALUES = st.one_of(
    st.floats(allow_nan=True, allow_infinity=True),
    st.integers(-5, 400),
    st.sampled_from([None, True, "x", "0.5", "", [1], {}]),
)


def _drawn_config(files, draw) -> str:
    """The fixture config with drawn ``alpha``, ``learners`` and ``apriori``
    values: ``pipeline`` takes its settings from the config alone."""
    doc = json.loads((files / "config.json").read_text(encoding="utf-8"))
    doc["alpha"] = draw(JSON_VALUES)
    doc["learners"] = draw(st.one_of(NAMES.map(lambda names: names.split(",")), NAMES, JSON_VALUES))
    doc["apriori"] = draw(st.one_of(
        st.fixed_dictionaries({}, optional={key: JSON_VALUES for key in ("min_support", "min_confidence",
                                                                         "max_rules")}),
        st.none(),
        JSON_VALUES,
    ))
    path = files / "drawn-config.json"
    path.write_text(json.dumps(doc), encoding="utf-8")
    return str(path)


def _command(files, draw):
    data, schema, out = str(files / "data.csv"), str(files / "schema.json"), str(files / "out")
    common = ["--input", data, "--schema", schema, "--out", out + ".file"]
    value = draw(NUMBERS)
    return draw(st.sampled_from([
        ["rank", *common, "--alpha", value],
        ["eliminate", *common, "--alpha", value, "--learners", draw(NAMES), "--min-size", draw(NUMBERS),
         "--ratios", draw(st.sampled_from(["0.75,0.175,0.075", "a,b,c", "0.5,0.5", "1,0,0", "nan,0.5,0.5",
                                           "0.6,0.2,0.2,0", value]))],
        ["train", *common, "--learner", "DT", "--features", draw(NAMES)],
        ["mine", *common, "--features", draw(NAMES), "--min-support", value,
         "--min-confidence", draw(NUMBERS), "--max-rules", draw(NUMBERS)],
        ["augment", *common, "--k", value, "--target-total", draw(NUMBERS),
         draw(st.sampled_from(["--balance", "--no-balance"]))],
        ["pipeline", "--config", _drawn_config(files, draw), "--out", out + "-report"],
    ]))


@given(data=st.data())
@settings(max_examples=200, deadline=None, suppress_health_check=[HealthCheck.function_scoped_fixture])
def test_malformed_argument_values_exit_with_a_documented_code(files, data):
    argv = _command(files, data.draw)
    stderr = io.StringIO()
    with contextlib.redirect_stderr(stderr), contextlib.redirect_stdout(io.StringIO()):
        try:
            code = main(argv)
        except SystemExit as exc:  # argparse rejects a value its type cannot parse
            code = exc.code
    assert code in (0, 2, 3, 4), (argv, stderr.getvalue())
    assert "Traceback" not in stderr.getvalue()
    if code == 2 and not stderr.getvalue().startswith("usage:"):
        assert stderr.getvalue().startswith("config error:") or "stage" in stderr.getvalue(), stderr.getvalue()


@pytest.mark.parametrize("argv", [
    ["train", "--learner", "DT", "--features", "nosuch"],
    ["eliminate", "--ratios", "a,b,c"],
    ["rank", "--alpha", "2"],
    ["mine", "--features", "nosuch"],
    ["mine", "--max-rules", "-5"],
    ["train", "--learner", "DT", "--seed", "5"],
    ["evaluate", "--model", "{files}/data.csv"],
    ["evaluate", "--model", "{files}/model-v1.json"],
    ["evaluate", "--model", "{files}/model-list.json"],
    ["eliminate", "--learners", ""],
    ["evaluate", "--model", "{files}/nosuch.json"],
    ["rank", "--schema", "{files}/nosuch.json"],
    ["pipeline", "--config", "{files}/latin-1.json"],
    ["train", "--learner", "DT", "--features-file", "{files}/latin-1.json"],
])
def test_bad_values_are_config_errors(files, argv, capsys):
    common = ["--out", str(files / "out.file")]
    if argv[0] != "pipeline":  # it reads its data and schema from --config
        common += ["--input", str(files / "data.csv"), "--schema", str(files / "schema.json")]
    argv = [arg.replace("{files}", str(files)) for arg in argv]
    assert main(argv[:1] + common + argv[1:]) == 2
    err = capsys.readouterr().err
    assert err.startswith("config error:") and err.count("\n") == 1


def test_evaluating_a_model_on_data_without_its_features_is_a_config_error(files, tmp_path, capsys):
    schema = Schema(features=tuple(FeatureSpec(name, "binary", (0, 1)) for name in FEATURES[2:]))
    save_schema(schema, tmp_path / "schema.json")
    write_csv(generate_synthetic(GenSpec(n_records=40, seed=1, schema=schema)), tmp_path / "data.csv")
    model = str(tmp_path / "model.json")
    assert main(["train", "--input", str(files / "data.csv"), "--schema", str(files / "schema.json"),
                 "--learner", "DT", "--out", model]) == 0
    assert main(["evaluate", "--model", model, "--input", str(tmp_path / "data.csv"),
                 "--schema", str(tmp_path / "schema.json"), "--out", str(tmp_path / "metrics.json")]) == 2
    assert capsys.readouterr().err.startswith("config error:")


def test_config_documents_of_the_wrong_shape_are_config_errors(tmp_path, capsys):
    docs = {
        "list": [1, 2],
        "generator": {"generator": [1]},
        "section": {**small_config_doc(), "smote": 5},
        "value": {**small_config_doc(), "seed": "x"},
        "required": {"generator": {"seed": 1}},
        "unread hyperparameter": {**small_config_doc(), "classifier_params": {"DT": {"criterion": "gini"}}},
        "unknown kind": {**small_config_doc(), "classifier_params": {"Rf": {"n_estimators": 50}}},
        "params not an object": {**small_config_doc(), "classifier_params": {"RF": 5}},
        "params a list": {**small_config_doc(), "classifier_params": [1]},
        "learners a string": {**small_config_doc(), "learners": "RF"},
        "learners of lists": {**small_config_doc(), "learners": [["RF"]]},
        "input and generator": {**small_config_doc(), "input": "data.csv"},
        "negative max_rules": {**small_config_doc(), "apriori": {"max_rules": -1}},  # refused before any stage
        "unknown key": {**small_config_doc(), "alfa": 0.5},
        "unknown section key": {**small_config_doc(), "apriori": {"min_suport": 0.9}},
        "unknown generator key": {**small_config_doc(), "generator": {**small_config_doc()["generator"], "sed": 3}},
        "removed smote.seed": {**small_config_doc(), "smote": {"seed": None}},
    }
    for name, doc in docs.items():
        path = tmp_path / f"{name}.json"
        path.write_text(json.dumps(doc), encoding="utf-8")
        for command in ("pipeline", "generate"):  # generate refuses every config that pipeline refuses
            assert main([command, "--config", str(path), "--out", str(tmp_path / "out")]) == 2, (command, name)
            err = capsys.readouterr().err
            assert err.startswith("config error:") and err.count("\n") == 1, (command, name)
    # params for a kind that the learners list leaves out are still accepted
    config_from_dict({**small_config_doc(), "learners": ["DT"], "classifier_params": {"LR": {"max_iter": 5}}})


def _generator(**entries):
    return {"generator": {**small_config_doc()["generator"], **entries}}


@pytest.mark.parametrize("change", [
    {"ratios": [0.5, 0.5, 0.5]},
    {"ratios": ["0.75", "0.175", "0.075"]},
    {"elimination": {"min_size": 0}},
    {"elimination": {"min_size": 2.9}},
    {"apriori": {"min_support": 2}},
    {"apriori": {"min_confidence": -1}},
    {"apriori": {"min_confidence": "0.8"}},
    {"stratified": "false"},
    {"smote": {"balance": "false"}},
    {"smote": {"target_total": "x"}},
    {"smote": {"target_total": 500.5}},
    {"seed": "11"},
    {"apriori": {"min_support": True}},
    {"positive_class": True},
    {"input": 0, "generator": None},
    {"schema": 5},
    {"generator": {**small_config_doc()["generator"], "n_records": 420.5}},
    _generator(planted_factors=[{"feature": "weak-password", "value": 1.9, "victim_prob": 0.88}]),
    _generator(planted_factors=[{"feature": "weak-password", "value": 1, "victim_prob": "0.8"}]),
    _generator(planted_factors=[{"feature": "weak-password", "value": 1, "victim_prob": 0.88, "margnal": 0.5}]),
    _generator(planted_factors=[{"feature": "weak-password", "victim_prob": 0.88}]),
    _generator(planted_factors=[[1, 2]]),
    _generator(planted_rule={"factors": [["clicked-on-spam-email-links", 1]], "victim_prob": 0.9, "coverage": "0.3"}),
    _generator(planted_rule={"factors": [["clicked-on-spam-email-links", "1"]], "victim_prob": 0.9, "coverage": 0.3}),
    _generator(noise_marginals={"nosuch": {"0": 1.0}}),
    _generator(noise_marginals={"age-range": {"1": True, "2": 0.5}}),
    _generator(noise_marginals={"age-range": {"7": 0.1, "1": 0.9}}),
    _generator(noise_marginals={"age-range": {"1": -0.1, "2": 0.5}}),
    _generator(noise_marginals={"age-range": {"1": 0, "2": 0}}),
    _generator(noise_marginals={"age-range": {"x": 0.5}}),
])
def test_config_values_of_the_wrong_type_or_range_are_refused_when_parsed(change, tmp_path, capsys):
    path = tmp_path / "config.json"
    path.write_text(json.dumps({**small_config_doc(), **change}), encoding="utf-8")
    assert main(["pipeline", "--config", str(path), "--out", str(tmp_path / "out")]) == 2
    err = capsys.readouterr().err
    assert err.startswith("config error:") and err.count("\n") == 1, err


@pytest.mark.parametrize("params", [
    {"LR": {"C": -1}},
    {"GB": {"n_estimators": 0}},
    {"DT": {"min_samples_split": -3}},
    {"GNB": {"var_smoothing": -1.0}},
    {"RF": {"n_estimators": "x"}},
    {"RF": {"seed": -1}},
    {"SVC": {"gamma": "auto"}},
    {"LR": {"max_iter": 1.5}},
    {"LR": {"C": True}},
])
def test_hyperparameters_of_the_wrong_type_or_range_are_config_errors(params, tmp_path, capsys):
    doc = {**small_config_doc(), "learners": list(params), "classifier_params": params}
    path = tmp_path / "config.json"
    path.write_text(json.dumps(doc), encoding="utf-8")
    assert main(["pipeline", "--config", str(path), "--out", str(tmp_path / "out")]) == 2
    err = capsys.readouterr().err
    assert err.startswith("config error:") and err.count("\n") == 1, err


# Each edit leaves a model file that parses, but whose params do not fit its
# four features or, for GNB, the two classes.
MODEL_EDITS = {
    "LR weights short": ("LR", lambda p: p.update(weights=p["weights"][:-1])),
    "SVC support vectors narrow": ("SVC", lambda p: p.update(support_vectors=[v[:-1] for v in p["support_vectors"]])),
    "SVC dual_coef short": ("SVC", lambda p: p.update(dual_coef=p["dual_coef"][:-1])),
    "GNB theta narrow": ("GNB", lambda p: p.update(theta=[row[:-1] for row in p["theta"]])),
    "GNB class 7": ("GNB", lambda p: p.update(classes=[0, 7])),
    "RF feature outside": ("RF", lambda p: p["feature"].__setitem__(p["roots"][0], 99)),
}


@pytest.mark.parametrize("name", MODEL_EDITS)
def test_evaluate_refuses_model_params_that_do_not_fit_the_features(name, files, tmp_path, capsys):
    _evaluate_refuses(*MODEL_EDITS[name], files, tmp_path, capsys)


def _set(key, value, index=None):
    """An edit that sets param *key*, or its entry *index*, to *value*."""
    return lambda p: p.update({key: value}) if index is None else p[key].__setitem__(index, value)


# Each edit sets one param to a value that is not finite; JSON writes these as
# NaN and Infinity, which the reader accepts.
NON_FINITE_EDITS = {
    "LR weight NaN": ("LR", _set("weights", float("nan"), 0)),
    "LR bias NaN": ("LR", _set("bias", float("nan"))),
    "SVC intercept NaN": ("SVC", _set("intercept", float("nan"))),
    "SVC gamma_value inf": ("SVC", _set("gamma_value", float("inf"))),
    "SVC dual_coef -inf": ("SVC", _set("dual_coef", float("-inf"), 0)),
    "GB init_score NaN": ("GB", _set("init_score", float("nan"))),
    "GB leaf value inf": ("GB", _set("value", float("inf"), -1)),
    "GNB log_prior NaN": ("GNB", _set("log_prior", float("nan"), 0)),
    "DT value NaN": ("DT", _set("value", float("nan"), 0)),
    "RF value NaN": ("RF", _set("value", float("nan"), 0)),
}


@pytest.mark.parametrize("name", NON_FINITE_EDITS)
def test_evaluate_refuses_model_params_that_are_not_finite(name, files, tmp_path, capsys):
    _evaluate_refuses(*NON_FINITE_EDITS[name], files, tmp_path, capsys)


def _evaluate_refuses(kind, edit, files, tmp_path, capsys):
    """``evaluate --model`` on a *kind* model file whose params *edit*
    changed exits 2 with one ``config error:`` line."""
    data, schema = str(files / "data.csv"), str(files / "schema.json")
    doc = model_to_dict(train(ClassifierSpec(kind), load_dataset(data, load_schema(schema))))
    edit(doc["params"])
    path = tmp_path / "model.json"
    path.write_text(json.dumps(doc), encoding="utf-8")
    argv = ["evaluate", "--model", str(path), "--input", data, "--schema", schema, "--out", str(tmp_path / "m")]
    assert main(argv) == 2
    err = capsys.readouterr().err
    assert err.startswith("config error:") and err.count("\n") == 1, err

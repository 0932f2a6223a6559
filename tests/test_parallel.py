"""Elimination's worker pool: one and two usable CPUs give the same bytes
and the same error, a worker that dies fails the run, no run leaves a worker
behind, and the usable CPUs turn into a worker count as documented. No test
here starts more than two workers."""

from __future__ import annotations

import json
import multiprocessing
import os
import subprocess
import sys
import time
from concurrent.futures import ProcessPoolExecutor, ThreadPoolExecutor

import pytest

import riskminer
from riskminer import elimination
from riskminer.classifiers.boosting import GradientBoostingLearner
from riskminer.classifiers.forest import DecisionTreeLearner
from riskminer.cli import main
from riskminer.dataset import split_dataset
from riskminer.elimination import backward_eliminate, worker_count
from riskminer.errors import FeatureMismatchError, IllegalValueError
from riskminer.generate import GenSpec, PlantedFactor, generate_synthetic
from riskminer.pipeline import config_from_dict
from test_pipeline import small_config_doc

ELIMINATE_FEATURES = (
    "weak-password",
    "social-media-user",
    "receive-phishing-email",
    "shared-email-access",
    "clicked-on-spam-email-links",
    "online-products-purchaser",
)


def eliminate_shaped_doc() -> dict:
    """All six learners over six strong survivors, eliminated down to four:
    two steps, 18 candidate sets and the baseline."""
    return {
        "seed": 5,
        "alpha": 0.001,
        "generator": {
            "n_records": 160,
            "class_balance": 0.5,
            "seed": 2,
            "planted_factors": [{"feature": f, "value": 1, "victim_prob": 0.75} for f in ELIMINATE_FEATURES],
        },
        "smote": {"balance": False},
        "classifier_params": {"LR": {"max_iter": 150}, "GB": {"n_estimators": 20}, "RF": {"n_estimators": 5}},
        "elimination": {"min_size": 4},
    }


def _usable_cpus(monkeypatch, count: int) -> None:
    """*count* usable CPUs, whatever the machine has."""
    monkeypatch.setattr(os, "sched_getaffinity", lambda pid: set(range(count)), raising=False)


def _run(tmp_path, monkeypatch, name: str, doc: dict, cpus: int) -> tuple[int, dict | None]:
    """Run ``pipeline`` on *doc* with *cpus* usable CPUs; its exit code and
    output files (None: no output directory)."""
    _usable_cpus(monkeypatch, cpus)
    config = tmp_path / f"{name}.json"
    config.write_text(json.dumps(doc), encoding="utf-8")
    out = tmp_path / f"{name}-cpus{cpus}"
    code = main(["pipeline", "--config", str(config), "--out", str(out)])
    assert multiprocessing.active_children() == []
    files = {p.name: p.read_bytes() for p in sorted(out.iterdir())} if out.exists() else None
    return code, files


@pytest.mark.parametrize("name, doc", [("small", small_config_doc()), ("eliminate", eliminate_shaped_doc())])
def test_one_and_two_cpus_write_identical_reports(tmp_path, monkeypatch, name, doc):
    code_1, files_1 = _run(tmp_path, monkeypatch, name, doc, 1)
    code_2, files_2 = _run(tmp_path, monkeypatch, name, doc, 2)
    assert code_1 == code_2 == 0
    assert files_1 == files_2
    report = json.loads(files_1["report.json"])
    assert len(report["elimination"]["rows"]) >= 3  # the baseline and at least one step


def test_eliminate_subcommand_writes_the_same_files_on_one_and_two_cpus(tmp_path, monkeypatch):
    doc = eliminate_shaped_doc()
    gen = doc["generator"]
    planted = tuple(PlantedFactor(f, 1, 0.75) for f in ELIMINATE_FEATURES)
    data = tmp_path / "data.csv"
    riskminer.write_csv(generate_synthetic(GenSpec(n_records=gen["n_records"], seed=gen["seed"],
                                                   planted_factors=planted)), data)
    outputs = []
    for cpus in (1, 2):
        _usable_cpus(monkeypatch, cpus)
        out, selection = tmp_path / f"elim{cpus}.csv", tmp_path / f"sel{cpus}.json"
        assert main(["eliminate", "--input", str(data), "--alpha", "0.001", "--learners", "DT,GNB,LR",
                     "--min-size", "4", "--out", str(out), "--selection", str(selection)]) == 0
        assert multiprocessing.active_children() == []
        outputs.append((out.read_bytes(), selection.read_bytes()))
    assert outputs[0] == outputs[1]


@pytest.mark.parametrize("error, exit_code", [
    (IllegalValueError(3, "weak-password", 7), 3),
    (FeatureMismatchError(3, 4), 4),
])
def test_a_failing_learner_fails_alike_in_process_and_in_the_pool(tmp_path, monkeypatch, capsys, error, exit_code):
    def failing_fit(self, X, y):
        raise error

    def failing_tree_fit(self, X, y):
        raise RuntimeError("DT fails too")

    # patched before the fork, so the workers inherit it
    monkeypatch.setattr(GradientBoostingLearner, "fit", failing_fit)
    doc = eliminate_shaped_doc()
    seen = []
    for cpus in (1, 2):
        code, files = _run(tmp_path, monkeypatch, f"fail-{cpus}", doc, cpus)
        seen.append((code, capsys.readouterr().err, files))
    assert seen[0] == seen[1]
    code, err, files = seen[0]
    assert (code, files) == (exit_code, None)
    assert err == f"error: stage 'eliminate' failed: {error}\n"

    # DT comes before GB in the roster, so DT's error is the one reported
    monkeypatch.setattr(DecisionTreeLearner, "fit", failing_tree_fit)
    seen = []
    for cpus in (1, 2):
        code, files = _run(tmp_path, monkeypatch, f"fail-dt-{cpus}", doc, cpus)
        seen.append((code, capsys.readouterr().err, files))
    assert seen[0] == seen[1] == (4, "error: stage 'eliminate' failed: DT fails too\n", None)


def test_a_worker_that_dies_fails_the_run_and_leaves_no_process(tmp_path, monkeypatch, capsys):
    parent = os.getpid()
    real_fit = GradientBoostingLearner.fit

    def dying_fit(self, X, y):
        if os.getpid() != parent:
            os._exit(1)  # as the OOM killer or a segfault would end the worker
        return real_fit(self, X, y)

    monkeypatch.setattr(GradientBoostingLearner, "fit", dying_fit)
    code, files = _run(tmp_path, monkeypatch, "dies", eliminate_shaped_doc(), 2)
    assert (code, files) == (4, None)
    err = capsys.readouterr().err
    assert err.startswith("error: stage 'eliminate' failed: ") and "terminated abruptly" in err


def test_each_pool_batch_starts_and_shuts_down_its_own_workers(tmp_path, monkeypatch):
    # on 2 CPUs the doc fits two pool batches (the baseline, the start set and
    # step 1's candidates; then step 2's) and an empty last one in process
    events = []
    real_init, real_map, real_shutdown = (getattr(ProcessPoolExecutor, name) for name in ("__init__", "map", "shutdown"))

    def init(self, *args, **kwargs):
        events.append(("start", multiprocessing.active_children()))
        real_init(self, *args, **kwargs)

    def map_tasks(self, *args, **kwargs):
        events.append(("first task", None))
        return real_map(self, *args, **kwargs)

    def shutdown(self, *args, **kwargs):
        real_shutdown(self, *args, **kwargs)
        events.append(("shut down", multiprocessing.active_children()))

    monkeypatch.setattr(ProcessPoolExecutor, "__init__", init)
    monkeypatch.setattr(ProcessPoolExecutor, "map", map_tasks)
    monkeypatch.setattr(ProcessPoolExecutor, "shutdown", shutdown)
    code, files = _run(tmp_path, monkeypatch, "batches", eliminate_shaped_doc(), 2)
    assert code == 0 and files
    assert [event for event, _ in events] == ["start", "first task", "shut down"] * 2
    assert [children for event, children in events if event != "first task"] == [[]] * 4


def test_in_process_eliminations_in_two_threads_share_no_state(monkeypatch):
    _usable_cpus(monkeypatch, 1)  # every fit in this process: no thread starts a pool
    real_validate = elimination.validate

    def yielding_validate(*args):
        time.sleep(0.001)  # hands the other thread the interpreter between fits
        return real_validate(*args)

    monkeypatch.setattr(elimination, "validate", yielding_validate)
    cfg = config_from_dict(small_config_doc())
    ds = generate_synthetic(cfg.generator)
    bundles = [split_dataset(ds, cfg.ratios, seed) for seed in (1, 2)]

    def run(splits):
        return [(step.features, step.accuracies, step.removed) for step in backward_eliminate(splits, cfg.learners, 23)]

    alone = [run(splits) for splits in bundles]
    assert alone[0] != alone[1]
    with ThreadPoolExecutor(2) as threads:
        assert list(threads.map(run, bundles)) == alone
    assert multiprocessing.active_children() == []


# -- usable CPUs -> worker count -------------------------------------------------

def test_one_worker_per_usable_cpu_at_most_one_per_fit(monkeypatch):
    _usable_cpus(monkeypatch, 8)
    assert worker_count(100) == 8
    assert worker_count(3) == 3
    assert worker_count(1) == 1
    assert worker_count(0) == 1
    _usable_cpus(monkeypatch, 1)
    assert worker_count(100) == 1


def test_a_rebound_function_keeps_the_fits_in_process(monkeypatch):
    _usable_cpus(monkeypatch, 4)
    assert worker_count(100) == 4
    real_train = elimination.train
    monkeypatch.setattr(elimination, "train", lambda *args: real_train(*args))  # as a tracer wraps it
    assert worker_count(100) == 1
    monkeypatch.undo()
    _usable_cpus(monkeypatch, 4)
    assert worker_count(100) == 4


def test_without_the_fork_start_method_the_fits_run_in_process(monkeypatch):
    _usable_cpus(monkeypatch, 4)
    monkeypatch.setattr(multiprocessing, "get_all_start_methods", lambda: ["spawn"])

    def no_pool(*args, **kwargs):
        raise AssertionError("a pool was requested")

    monkeypatch.setattr(multiprocessing, "get_context", no_pool)
    assert worker_count(100) == 1
    cfg = config_from_dict(small_config_doc())
    splits = split_dataset(generate_synthetic(cfg.generator), cfg.ratios, cfg.seed)
    steps = backward_eliminate(splits, cfg.learners, 24)
    assert [len(step.features) for step in steps] == [26, 25, 24]


def test_importing_riskminer_leaves_multiprocessing_unloaded():
    src = os.path.dirname(os.path.dirname(riskminer.__file__))
    code = ("import sys, riskminer, riskminer.cli; "
            "print([m for m in sys.modules if m.split('.')[0] in ('multiprocessing', 'concurrent')])")
    out = subprocess.run([sys.executable, "-c", code], capture_output=True, text=True, check=True,
                         env={**os.environ, "PYTHONPATH": src})
    assert out.stdout.strip() == "[]"

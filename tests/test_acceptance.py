"""Acceptance gate: one test per criterion, each printing a PASS/FAIL line.

Run with `pytest tests/test_acceptance.py -v -s` to see the per-criterion
lines and timings. Every tolerance is pinned here.
"""

from __future__ import annotations

import json
import os
import random
import time
from contextlib import contextmanager
from itertools import chain, combinations

import mpmath as mp
import numpy as np

from conftest import toy_dataset, toy_schema
from riskminer.chisq import chi_squared_test
from riskminer.classifiers import (
    KINDS,
    ClassifierSpec,
    design_matrix,
    predict,
    score,
    score_rows,
    train,
)
from riskminer.classifiers.linear import LogisticLearner
from riskminer.cli import main
from riskminer.dataset import split_dataset
from riskminer.metrics import classification_metrics, confusion, roc_auc
from riskminer.mining import Rule, apriori, derive_rules
from riskminer.pipeline import config_from_dict, run_pipeline
from riskminer.smote import smote_n

mp.mp.dps = 40


@contextmanager
def criterion(number: int, description: str, budget_seconds: float):
    start = time.perf_counter()
    try:
        yield
    except Exception:
        print(f"ACCEPTANCE {number} [{description}]: FAIL")
        raise
    elapsed = time.perf_counter() - start
    assert elapsed < budget_seconds, (
        f"criterion {number} took {elapsed:.1f}s, budget {budget_seconds}s"
    )
    print(f"ACCEPTANCE {number} [{description}]: PASS ({elapsed:.2f}s)")


def test_criterion_1_metric_arithmetic():
    with criterion(1, "validation confusion metric arithmetic", 1.0):
        y_true = [0] * 118 + [1] * 129
        y_pred = [0] * 115 + [1] * 3 + [0] * 7 + [1] * 122
        cm = confusion(y_true, y_pred, positive=0)
        assert (cm.tp, cm.fn, cm.fp, cm.tn) == (115, 3, 7, 122)
        report = classification_metrics(cm)
        assert abs(report.accuracy * 100 - 95.95) <= 0.01
        assert round(report.per_class[0].precision, 2) == 0.94
        assert round(report.per_class[0].recall, 2) == 0.97
        assert round(report.per_class[1].precision, 2) == 0.98
        assert round(report.per_class[1].recall, 2) == 0.95
        assert round(report.weighted_f1, 2) == 0.96


def test_criterion_2_split_arithmetic():
    with criterion(2, "3286-record split sizes (2464, 575, 247)", 1.0):
        rng = random.Random(1)
        records = [[rng.randint(0, 1) for _ in range(3)] for _ in range(3286)]
        labels = [i % 2 for i in range(3286)]
        rng.shuffle(labels)
        ds = toy_dataset(records, labels)
        bundle = split_dataset(ds, (0.75, 0.175, 0.075), seed=42, stratified=True)
        assert len(bundle.train) == 2464
        assert len(bundle.test) == 575
        assert len(bundle.validation) == 247


def test_criterion_3_chi_squared_oracles():
    with criterion(3, "chi-squared statistic and p-value oracles", 1.0):
        uniform = chi_squared_test([[10, 10], [10, 10]])
        assert uniform.statistic == 0.0
        assert uniform.p_value == 1.0
        rng = random.Random(2024)
        checked = 0
        while checked < 200:
            counts = [[rng.randint(1, 80), rng.randint(1, 80)] for _ in range(rng.choice([2, 3]))]
            n = sum(map(sum, counts))
            if n > 500:
                continue
            result = chi_squared_test(counts)
            # direct O/E summation
            stat = 0.0
            for row in counts:
                for j in range(2):
                    expected = sum(row) * sum(r[j] for r in counts) / n
                    stat += (row[j] - expected) ** 2 / expected
            assert abs(result.statistic - stat) <= 1e-9
            reference = float(
                mp.gammainc(mp.mpf(result.dof) / 2, mp.mpf(result.statistic) / 2, mp.inf, regularized=True)
            )
            assert abs(result.p_value - reference) <= 1e-8
            checked += 1


def _brute_itemsets(transactions, min_support):
    universe = sorted(set().union(*transactions))
    n = len(transactions)
    out = {}
    for subset in chain.from_iterable(combinations(universe, r) for r in range(1, len(universe) + 1)):
        s = frozenset(subset)
        support = sum(1 for t in transactions if s <= t) / n
        if support >= min_support:
            out[s] = support
    return out


def test_criterion_4_apriori_oracle():
    with criterion(4, "apriori lattice vs exhaustive enumeration", 10.0):
        rng = random.Random(9)
        for _ in range(50):
            n_items = rng.randint(4, 12)
            n_tx = rng.randint(5, 64)
            transactions = [
                frozenset(rng.sample(range(1, n_items + 1), rng.randint(1, n_items)))
                for _ in range(n_tx)
            ]
            min_support = rng.choice([0.1, 0.25, 0.5])
            got = apriori(transactions, min_support)
            expected = _brute_itemsets(transactions, min_support)
            assert got == expected
            victim = n_items
            got_rules = derive_rules(got, 0.5, frozenset({victim}), cap=10_000)
            want = []
            if frozenset({victim}) in expected:
                for s, support in expected.items():
                    if s != frozenset({victim}) and victim in s:
                        antecedent = s - {victim}
                        conf = support / expected[antecedent]
                        if conf >= 0.5:
                            want.append(
                                Rule(antecedent, frozenset({victim}), support, conf,
                                     conf / expected[frozenset({victim})])
                            )
                want.sort(key=lambda r: (-r.confidence, -r.support, tuple(sorted(r.antecedent))))
            assert got_rules == want


def test_criterion_5_auc_oracle():
    with criterion(5, "trapezoidal AUC vs tie-adjusted concordance", 1.0):
        assert roc_auc([0, 0, 1, 1], [0.1, 0.2, 0.8, 0.9], positive=1) == 1.0
        assert roc_auc([0, 0, 1, 1], [0.9, 0.8, 0.2, 0.1], positive=1) == 0.0
        rng = random.Random(77)
        for _ in range(100):
            n = rng.randint(4, 30)
            y = [rng.randint(0, 1) for _ in range(n)]
            y[0], y[1] = 0, 1
            scores = [rng.choice([0.0, 0.25, 0.5, 0.75, 1.0]) for _ in range(n)]
            pos = [s for s, t in zip(scores, y) if t == 1]
            neg = [s for s, t in zip(scores, y) if t == 0]
            concordance = sum(
                1.0 if a > b else 0.5 if a == b else 0.0 for a in pos for b in neg
            ) / (len(pos) * len(neg))
            assert abs(roc_auc(y, scores, positive=1) - concordance) <= 1e-12


def test_criterion_6_smote_invariants():
    with criterion(6, "SMOTE sizing, prefix, closure, determinism", 5.0):
        rng = random.Random(123)
        for _ in range(20):
            width = rng.randint(3, 7)
            values = rng.choice([(0, 1), (0, 1, 2)])
            n = rng.randint(24, 60)
            k = rng.choice([1, 2, 3])
            records = [[rng.choice(values) for _ in range(width)] for _ in range(n)]
            labels = [rng.randint(0, 1) for _ in range(n)]
            for i in range(k + 1):
                labels[i], labels[n - 1 - i] = 0, 1
            ds = toy_dataset(records, labels)
            counts = ds.class_counts()
            targets = {c: counts[c] + rng.randint(0, 25) for c in counts}
            seed = rng.randint(0, 9999)
            out = smote_n(ds, targets, k, seed)
            assert out.class_counts() == targets  # exact sizing
            assert out.records[: len(ds)] == ds.records  # prefix preserved
            redo = smote_n(ds, targets, k, seed)
            assert redo.records == out.records and redo.labels == out.labels
            by_class = {
                c: {tuple(r) for r, lab in zip(ds.records, ds.labels) if lab == c}
                for c in counts
            }
            for rec, lab in zip(out.records[len(ds):], out.labels[len(ds):]):
                for j, value in enumerate(rec):
                    assert any(orig[j] == value for orig in by_class[lab])


def test_criterion_7_classifier_sanity():
    with criterion(7, "six-learner sanity suite", 60.0):
        # linearly separable: class 0 sums <= 1, class 1 sums >= 5
        rng = random.Random(15)
        records, labels = [], []
        for i in range(240):
            if i % 2 == 0:
                row = [0, 0, 0]
                if rng.random() < 0.5:
                    row[rng.randrange(3)] = 1
                labels.append(0)
            else:
                row = [2, 2, 2]
                if rng.random() < 0.5:
                    row[rng.randrange(3)] = 1
                labels.append(1)
            records.append(row)
        ds = toy_dataset(records, labels, schema=toy_schema(3, values=(0, 1, 2)))
        X, y = design_matrix(ds, ds.schema.feature_names)
        for kind in KINDS:
            model = train(ClassifierSpec(kind), ds)
            accuracy = float(((score_rows(model, X) >= 0.5) == y).mean())
            assert accuracy >= 0.95, f"{kind} reached only {accuracy:.3f}"

        # DT solves XOR exactly
        xor = toy_dataset([[0, 0], [0, 1], [1, 0], [1, 1]], [0, 1, 1, 0])
        xor_model = train(ClassifierSpec("DT"), xor)
        Xx, yx = design_matrix(xor, xor.schema.feature_names)
        assert ((score_rows(xor_model, Xx) >= 0.5) == yx).all()

        # GNB matches the hand posterior within 1e-9
        gnb_ds = toy_dataset([[0], [0], [1], [1]], [0, 0, 1, 1])
        gnb = train(ClassifierSpec("GNB"), gnb_ds)
        assert predict(gnb, [0]) == 0 and predict(gnb, [1]) == 1
        assert abs(score(gnb, [0]) - 0.0) <= 1e-9
        assert abs(score(gnb, [1]) - 1.0) <= 1e-9

        # LR gradient vs central finite differences, 1e-6 relative
        rng_np = np.random.default_rng(3)
        Xg = rng_np.integers(0, 3, size=(30, 4)).astype(np.float64)
        yg = rng_np.integers(0, 2, size=30).astype(np.float64)
        learner = LogisticLearner()
        w = rng_np.normal(size=4) * 0.4
        b = -0.2
        grad_w, grad_b = learner.gradient(Xg, yg, w, b)
        h = 1e-5
        for j in range(4):
            bump = np.zeros(4)
            bump[j] = h
            numeric = (
                learner.objective(Xg, yg, w + bump, b) - learner.objective(Xg, yg, w - bump, b)
            ) / (2 * h)
            assert abs(numeric - grad_w[j]) <= 1e-6 * max(1.0, abs(grad_w[j]))
        numeric_b = (
            learner.objective(Xg, yg, w, b + h) - learner.objective(Xg, yg, w, b - h)
        ) / (2 * h)
        assert abs(numeric_b - grad_b) <= 1e-6 * max(1.0, abs(grad_b))

        # GB training log-loss monotone over all 100 rounds
        rng_np = np.random.default_rng(21)
        Xb = rng_np.integers(0, 2, size=(200, 5)).astype(int)
        yb = ((Xb[:, 0] + Xb[:, 1] + rng_np.random(200) * 0.4) >= 1.2).astype(int)
        gb_ds = toy_dataset(Xb.tolist(), yb.tolist())
        gb = train(ClassifierSpec("GB"), gb_ds)
        losses = gb.impl.train_losses
        assert len(losses) == 101
        assert all(later <= earlier + 1e-12 for earlier, later in zip(losses, losses[1:]))


ACCEPTANCE_CONFIG = {
    "seed": 42,
    "generator": {
        "n_records": 3286,
        "class_balance": 0.5,
        "seed": 7,
        "planted_factors": [
            {"feature": "weak-password", "value": 1, "victim_prob": 0.85},
            {"feature": "compulsive-buyer", "value": 1, "victim_prob": 0.85},
            {"feature": "shared-email-access", "value": 1, "victim_prob": 0.85},
            {"feature": "sharing-private-information-on-the-internet", "value": 1, "victim_prob": 0.85},
            {"feature": "installed-malicious-software", "value": 1, "victim_prob": 0.85},
        ],
        "planted_rule": {
            "factors": [
                ["clicked-on-spam-email-links", 1],
                ["download-unauthorized-software", 1],
                ["used-virus-infected-pen-drive", 1],
            ],
            "victim_prob": 0.9,
            "coverage": 0.35,
        },
    },
}

SIGNAL_FEATURES = [p["feature"] for p in ACCEPTANCE_CONFIG["generator"]["planted_factors"]]
RULE_FACTOR_IDS = frozenset({19, 11, 31})  # the planted combination's yes-factors


def test_criterion_8_planted_signal_pipeline():
    with criterion(8, "end-to-end planted-signal run", 120.0):
        report = run_pipeline(config_from_dict(ACCEPTANCE_CONFIG))
        top10 = {feature for feature, _, _ in report.ranking[:10]}
        assert set(SIGNAL_FEATURES) <= top10
        best_kind = report.best["learner"]
        assert report.validation[best_kind]["metrics"].accuracy >= 0.90
        planted = [r for r in report.rules if r.antecedent == RULE_FACTOR_IDS]
        assert planted, "planted rule not mined"
        assert planted[0].confidence >= 0.8
        assert planted[0].support >= 0.25


def test_criterion_9_pipeline_determinism(tmp_path):
    with criterion(9, "byte-identical pipeline reruns", 240.0):
        config_path = tmp_path / "config.json"
        config_path.write_text(json.dumps(ACCEPTANCE_CONFIG), encoding="utf-8")
        out_a = tmp_path / "run_a"
        out_b = tmp_path / "run_b"
        assert main(["pipeline", "--config", str(config_path), "--out", str(out_a)]) == 0
        assert main(["pipeline", "--config", str(config_path), "--out", str(out_b)]) == 0
        names = sorted(os.listdir(out_a))
        assert names == sorted(os.listdir(out_b))
        for name in names:
            assert (out_a / name).read_bytes() == (out_b / name).read_bytes(), name

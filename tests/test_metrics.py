"""Confusion matrix, classification metrics, ROC curve, and AUC."""

from __future__ import annotations

import random

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from riskminer.errors import DataError
from riskminer.metrics import (
    auc,
    classification_metrics,
    confusion,
    roc_auc,
    roc_points,
)


def test_confusion_perfect():
    cm = confusion([0, 1, 0, 1], [0, 1, 0, 1], positive=0)
    assert (cm.fp, cm.fn) == (0, 0)
    assert (cm.tp, cm.tn) == (2, 2)


def test_confusion_hand_tally_positive_zero():
    cm = confusion([0, 0, 1, 1], [0, 1, 1, 1], positive=0)
    assert (cm.tp, cm.fn, cm.fp, cm.tn) == (1, 1, 0, 2)


def test_confusion_error_cases():
    with pytest.raises(DataError):
        confusion([0, 1], [0], positive=0)
    with pytest.raises(DataError):
        confusion([], [], positive=0)


def test_validation_confusion_metrics():
    # 247 predictions: 115 true non-victims, 3 non-victims called victims,
    # 7 victims called non-victims, 122 true victims.
    y_true = [0] * 118 + [1] * 129
    y_pred = [0] * 115 + [1] * 3 + [0] * 7 + [1] * 122
    cm = confusion(y_true, y_pred, positive=0)
    assert (cm.tp, cm.fn, cm.fp, cm.tn) == (115, 3, 7, 122)
    report = classification_metrics(cm)
    assert report.accuracy * 100 == pytest.approx(95.95, abs=0.01)
    non_victim = report.per_class[0]
    victim = report.per_class[1]
    assert round(non_victim.precision, 2) == 0.94
    assert round(non_victim.recall, 2) == 0.97
    assert round(victim.precision, 2) == 0.98
    assert round(victim.recall, 2) == 0.95
    assert round(report.weighted_f1, 2) == 0.96
    assert non_victim.support == 118
    assert victim.support == 129


def test_metrics_zero_denominator_flagged():
    cm = confusion([1, 1], [1, 1], positive=0)  # tp = fp = 0 for class 0
    report = classification_metrics(cm)
    assert report.per_class[0].precision == 0.0
    assert any("precision[0]" in flag for flag in report.flags)


def test_metrics_all_correct():
    cm = confusion([0, 1, 1], [0, 1, 1], positive=0)
    report = classification_metrics(cm)
    for m in report.per_class.values():
        assert m.precision == m.recall == m.f1 == 1.0
    assert report.accuracy == 1.0
    assert report.weighted_f1 == 1.0
    assert report.flags == ()


def test_accuracy_identity():
    rng = random.Random(7)
    y = [rng.randint(0, 1) for _ in range(50)]
    p = [rng.randint(0, 1) for _ in range(50)]
    cm = confusion(y, p, positive=0)
    assert classification_metrics(cm).accuracy == (cm.tp + cm.tn) / 50


# -- ROC / AUC ---------------------------------------------------------------

def _concordance(y_true, scores, positive):
    pos = [s for s, t in zip(scores, y_true) if t == positive]
    neg = [s for s, t in zip(scores, y_true) if t != positive]
    total = 0.0
    for a in pos:
        for b in neg:
            if a > b:
                total += 1.0
            elif a == b:
                total += 0.5
    return total / (len(pos) * len(neg))


def test_roc_perfect_ranking_hits_corner():
    y = [0, 0, 1, 1]
    s = [0.9, 0.8, 0.2, 0.1]
    curve = roc_points(y, s, positive=0)
    points = list(zip(curve.fpr.tolist(), curve.tpr.tolist()))
    assert (0.0, 1.0) in points
    assert points[0] == (0.0, 0.0)
    assert points[-1] == (1.0, 1.0)
    assert auc(curve) == 1.0


def test_roc_constant_scores():
    curve = roc_points([0, 1, 0, 1], [0.4, 0.4, 0.4, 0.4], positive=1)
    assert (curve.fpr.tolist(), curve.tpr.tolist()) == ([0.0, 1.0], [0.0, 1.0])
    assert curve.thresholds.tolist() == [np.inf, 0.4]
    assert auc(curve) == 0.5


def test_roc_hand_example():
    assert roc_auc([0, 1, 0, 1], [0.1, 0.2, 0.3, 0.4], positive=1) == pytest.approx(0.75)


def test_roc_reversed_ranking():
    assert roc_auc([0, 0, 1, 1], [0.1, 0.2, 0.8, 0.9], positive=0) == 0.0


def test_roc_one_class_only():
    with pytest.raises(DataError):
        roc_points([1, 1, 1], [0.1, 0.2, 0.3], positive=1)


def test_roc_monotone_points():
    rng = random.Random(5)
    y = [rng.randint(0, 1) for _ in range(40)]
    y[0], y[1] = 0, 1
    s = [rng.choice([0.1, 0.25, 0.5, 0.75]) for _ in range(40)]
    curve = roc_points(y, s, positive=1)
    assert curve.fpr.shape == curve.tpr.shape == curve.thresholds.shape
    assert (np.diff(curve.fpr) >= 0).all() and (np.diff(curve.tpr) >= 0).all()
    assert list(curve.thresholds) == sorted(curve.thresholds, reverse=True)


def test_auc_matches_concordance_with_ties():
    rng = random.Random(42)
    for _ in range(100):
        n = rng.randint(4, 30)
        y = [rng.randint(0, 1) for _ in range(n)]
        y[0], y[1] = 0, 1  # both classes present
        s = [rng.choice([0.0, 0.2, 0.4, 0.6, 0.8, 1.0]) for _ in range(n)]
        got = roc_auc(y, s, positive=1)
        assert got == pytest.approx(_concordance(y, s, 1), abs=1e-12)


def test_auc_complement_and_transform_invariance():
    rng = random.Random(9)
    y = [rng.randint(0, 1) for _ in range(30)]
    y[0], y[1] = 0, 1
    s = [rng.random() for _ in range(30)]  # continuous, so tie-free
    assert roc_auc(y, s, 1) + roc_auc(y, [-v for v in s], 1) == pytest.approx(1.0, abs=1e-12)
    squashed = [v ** 3 + 2.0 for v in s]  # strictly increasing transform
    assert roc_auc(y, squashed, 1) == pytest.approx(roc_auc(y, s, 1), abs=1e-12)


def _loop_auc(curve) -> float:
    """The trapezoid sum as a Python loop over the curve's points."""
    points = list(zip(curve.fpr.tolist(), curve.tpr.tolist()))
    total = 0.0
    for (x0, y0), (x1, y1) in zip(points, points[1:]):
        total += (x1 - x0) * (y0 + y1) / 2.0
    return total


@settings(max_examples=300, deadline=None)
@given(st.data())
def test_auc_adds_the_trapezoids_as_a_loop_does(data):
    # fewer distinct scores than rows, so thresholds hold tied blocks of both
    # classes; with eight or more trapezoids, numpy's pairwise sum would add
    # them in another order
    n = data.draw(st.integers(2, 80))
    y = data.draw(st.lists(st.integers(0, 1), min_size=n, max_size=n).filter(lambda v: 0 < sum(v) < n))
    levels = data.draw(st.lists(st.floats(0.0, 1.0, allow_nan=False), min_size=1, max_size=16, unique=True))
    s = data.draw(st.lists(st.sampled_from(levels), min_size=n, max_size=n))
    positive = data.draw(st.integers(0, 1))
    curve = roc_points(y, s, positive)
    assert auc(curve).hex() == _loop_auc(curve).hex()

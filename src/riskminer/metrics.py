"""Classification metrics: confusion matrix, precision/recall/F1, ROC, AUC.

The positive class is a parameter everywhere; reports emit both per-class
rows, so the choice only decides which cell is called "TP". Zero
denominators never raise: the affected metric is 0 and the report carries a
flag naming it.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .errors import DataError


@dataclass(frozen=True)
class ConfusionMatrix:
    tp: int
    fp: int
    fn: int
    tn: int
    positive: int

    @property
    def total(self) -> int:
        return self.tp + self.fp + self.fn + self.tn

    def swapped(self) -> "ConfusionMatrix":
        """The same predictions viewed with the other class as positive."""
        return ConfusionMatrix(
            tp=self.tn, fp=self.fn, fn=self.fp, tn=self.tp, positive=1 - self.positive
        )


@dataclass(frozen=True)
class ClassMetrics:
    precision: float
    recall: float
    tnr: float
    f1: float
    support: int


@dataclass(frozen=True)
class MetricsReport:
    positive: int
    per_class: dict  # label -> ClassMetrics
    accuracy: float
    weighted_f1: float
    flags: tuple[str, ...]


def confusion(y_true, y_pred, positive: int) -> ConfusionMatrix:
    if len(y_true) != len(y_pred):
        raise DataError(f"length mismatch: {len(y_true)} labels vs {len(y_pred)} predictions")
    if len(y_true) == 0:
        raise DataError("cannot build a confusion matrix from zero records")
    actual, predicted = np.asarray(y_true) == positive, np.asarray(y_pred) == positive
    tp, fn = int(np.sum(actual & predicted)), int(np.sum(actual & ~predicted))
    fp, tn = int(np.sum(~actual & predicted)), int(np.sum(~actual & ~predicted))
    return ConfusionMatrix(tp=tp, fp=fp, fn=fn, tn=tn, positive=positive)


def _safe_div(num: float, den: float, name: str, flags: list) -> float:
    if den == 0:
        flags.append(f"zero denominator: {name}")
        return 0.0
    return num / den


def classification_metrics(cm: ConfusionMatrix) -> MetricsReport:
    """Per-class precision/recall/TNR/F1, accuracy, and support-weighted F1."""
    flags: list[str] = []
    per_class: dict[int, ClassMetrics] = {}
    views = {cm.positive: cm, 1 - cm.positive: cm.swapped()}
    supports = {cm.positive: cm.tp + cm.fn, 1 - cm.positive: cm.fp + cm.tn}
    for label in sorted(views):
        v = views[label]
        precision = _safe_div(v.tp, v.tp + v.fp, f"precision[{label}]", flags)
        recall = _safe_div(v.tp, v.tp + v.fn, f"recall[{label}]", flags)
        tnr = _safe_div(v.tn, v.tn + v.fp, f"tnr[{label}]", flags)
        f1 = _safe_div(2 * precision * recall, precision + recall, f"f1[{label}]", flags)
        per_class[label] = ClassMetrics(
            precision=precision, recall=recall, tnr=tnr, f1=f1, support=supports[label]
        )
    accuracy = (cm.tp + cm.tn) / cm.total
    total_support = sum(supports.values())
    weighted_f1 = sum(m.f1 * supports[label] for label, m in per_class.items()) / total_support
    return MetricsReport(
        positive=cm.positive,
        per_class=per_class,
        accuracy=accuracy,
        weighted_f1=weighted_f1,
        flags=tuple(flags),
    )


@dataclass(frozen=True)
class RocCurve:
    """Equal-length float arrays with one entry per point, from (0, 0) to (1, 1)."""

    fpr: np.ndarray
    tpr: np.ndarray
    thresholds: np.ndarray  # descending; starts at the +inf sentinel of (0, 0)


def oriented(scores: np.ndarray, positive: int) -> np.ndarray:
    """Victim-class scores turned so that a higher score means *positive*."""
    return scores if positive == 1 else 1.0 - scores


def roc_points(y_true, scores, positive: int) -> RocCurve:
    """Sweep descending unique scores; each point classifies score >= t as positive."""
    s = np.asarray(scores, dtype=np.float64)
    pos = np.asarray(y_true) == positive
    n_pos = int(pos.sum())
    n_neg = pos.size - n_pos
    if n_pos == 0 or n_neg == 0:
        raise DataError("ROC needs both classes present")
    order = np.argsort(-s, kind="stable")
    s_sorted, tps, fps = s[order], np.cumsum(pos[order]), np.cumsum(~pos[order])
    # Keep only the last index of each tied score block.
    last = np.nonzero(np.append(s_sorted[1:] != s_sorted[:-1], True))[0]
    return RocCurve(fpr=np.append(0.0, fps[last] / n_neg), tpr=np.append(0.0, tps[last] / n_pos),
                    thresholds=np.append(np.inf, s_sorted[last]))


def auc(curve: RocCurve) -> float:
    """Trapezoidal area under the curve, integrated over the FPR axis. The
    trapezoids are added one at a time in curve order, not by numpy's pairwise
    sum, so the area rounds as a loop over the points rounds it."""
    tpr = curve.tpr
    return float(np.cumsum(np.diff(curve.fpr) * (tpr[:-1] + tpr[1:]) / 2.0)[-1])


def roc_auc(y_true, scores, positive: int) -> float:
    return auc(roc_points(y_true, scores, positive))

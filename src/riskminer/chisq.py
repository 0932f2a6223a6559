"""Chi-squared independence testing and feature ranking.

The test is the uncorrected Pearson statistic over a count matrix, such as
the feature-by-label array of ``contingency``, empty rows and columns dropped
first. The upper-tail p-value comes from the regularized upper incomplete
gamma function Q(a, x), evaluated with the classic series / continued-fraction
pair, accurate to well under 1e-10 absolute.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .dataset import Dataset
from .errors import ConfigError, DegenerateTableError, UnknownFeatureError

_EPS = 1e-16
_MAX_ITER = 10_000


@dataclass(frozen=True)
class ChiSqResult:
    statistic: float
    dof: int
    p_value: float


def contingency(ds: Dataset, feature: str) -> np.ndarray:
    """Feature level x label counts, a (levels x 2) array in FeatureSpec value order."""
    if feature not in ds.schema:
        raise UnknownFeatureError(feature)
    values = ds.schema.feature(feature).values
    order = np.argsort(values)
    level = order[np.searchsorted(values, ds.codes[:, ds.schema.index_of(feature)], sorter=order)]
    return np.bincount(2 * level + ds.y, minlength=2 * len(values)).reshape(-1, 2)


def _lower_gamma_series(a: float, x: float) -> float:
    # Regularized lower incomplete gamma P(a, x), for x < a + 1.
    term = 1.0 / a
    total = term
    for n in range(1, _MAX_ITER):
        term *= x / (a + n)
        total += term
        if abs(term) < abs(total) * _EPS:
            break
    return total * math.exp(-x + a * math.log(x) - math.lgamma(a))


def _upper_gamma_cf(a: float, x: float) -> float:
    # Regularized upper incomplete gamma Q(a, x) by modified Lentz, for x >= a + 1.
    tiny = 1e-300
    b = x + 1.0 - a
    c = 1.0 / tiny
    d = 1.0 / b
    h = d
    for i in range(1, _MAX_ITER):
        an = -i * (i - a)
        b += 2.0
        d = an * d + b
        if abs(d) < tiny:
            d = tiny
        c = b + an / c
        if abs(c) < tiny:
            c = tiny
        d = 1.0 / d
        delta = d * c
        h *= delta
        if abs(delta - 1.0) < _EPS:
            break
    return h * math.exp(-x + a * math.log(x) - math.lgamma(a))


def regularized_gamma_q(a: float, x: float) -> float:
    """Q(a, x) = Gamma(a, x) / Gamma(a)."""
    if a <= 0 or x < 0:
        raise ValueError("require a > 0 and x >= 0")
    if x == 0.0:
        return 1.0
    log_scale = -x + a * math.log(x) - math.lgamma(a)
    if log_scale < -745:  # exp underflows; the tail is numerically zero
        return 0.0 if x > a else 1.0
    if x < a + 1.0:
        return 1.0 - _lower_gamma_series(a, x)
    return _upper_gamma_cf(a, x)


def chi_squared_test(counts) -> ChiSqResult:
    """Pearson chi-squared test of independence on a count matrix, uncorrected."""
    counts = np.asarray(counts, dtype=np.int64)
    counts = counts[counts.sum(axis=1) > 0][:, counts.sum(axis=0) > 0]
    rows, cols = counts.shape
    if rows < 2 or cols < 2:
        raise DegenerateTableError(f"need at least 2 non-empty rows and columns, got {rows}x{cols}")
    expected = np.outer(counts.sum(axis=1), counts.sum(axis=0)) / int(counts.sum())
    diff = counts - expected
    # a plain left-to-right sum in row-major order: np.sum, math.fsum and
    # sum() (compensated from Python 3.12) each round differently
    stat = 0.0
    for term in (diff * diff / expected).ravel().tolist():
        stat += term
    dof = (rows - 1) * (cols - 1)
    return ChiSqResult(statistic=stat, dof=dof, p_value=regularized_gamma_q(dof / 2.0, stat / 2.0))


def check_alpha(alpha: float) -> None:
    if not 0.0 < alpha < 1.0:
        raise ConfigError(f"alpha must lie in (0, 1), got {alpha}")


def rank_features(ds: Dataset, alpha: float) -> list[tuple[str, float, bool]]:
    """(feature, p_value, keep) triples, ascending p, ties in schema order.

    Features whose contingency table is degenerate (a level or class holding
    all the mass) get p = 1 and keep = False.
    """
    check_alpha(alpha)
    scored = []
    for idx, spec in enumerate(ds.schema.features):
        try:
            p = chi_squared_test(contingency(ds, spec.name)).p_value
        except DegenerateTableError:
            p = 1.0  # never below alpha, so never kept
        scored.append((p, idx, spec.name, p < alpha))
    scored.sort(key=lambda item: (item[0], item[1]))
    return [(name, p, keep) for p, _, name, keep in scored]

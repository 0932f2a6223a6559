"""Chi-squared independence testing and feature ranking.

The test is the uncorrected Pearson statistic over the feature-by-label
contingency table (empty rows and columns dropped first). The upper-tail
p-value comes from the regularized upper incomplete gamma function Q(a, x),
evaluated with the classic series / continued-fraction pair, accurate to
well under 1e-10 absolute.
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
class ContingencyTable:
    counts: tuple[tuple[int, ...], ...]  # rows: feature levels, cols: labels 0/1
    row_totals: tuple[int, ...]
    col_totals: tuple[int, ...]
    n: int

    @classmethod
    def from_counts(cls, counts) -> "ContingencyTable":
        rows = tuple(tuple(int(c) for c in row) for row in counts)
        row_totals = tuple(sum(row) for row in rows)
        col_totals = tuple(sum(col) for col in zip(*rows))
        return cls(counts=rows, row_totals=row_totals, col_totals=col_totals, n=sum(row_totals))


@dataclass(frozen=True)
class ChiSqResult:
    statistic: float
    dof: int
    p_value: float


def contingency(ds: Dataset, feature: str) -> ContingencyTable:
    """Tally feature level x label counts, rows in FeatureSpec value order."""
    if feature not in ds.schema:
        raise UnknownFeatureError(feature)
    values = ds.schema.feature(feature).values
    order = np.argsort(values)
    level = order[np.searchsorted(values, ds.codes[:, ds.schema.index_of(feature)], sorter=order)]
    counts = np.bincount(2 * level + ds.y, minlength=2 * len(values)).reshape(-1, 2)
    return ContingencyTable.from_counts(counts.tolist())


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


def chi_squared_test(table: ContingencyTable) -> ChiSqResult:
    """Pearson chi-squared test of independence, no continuity correction."""
    rows = [i for i, t in enumerate(table.row_totals) if t > 0]
    cols = [j for j, t in enumerate(table.col_totals) if t > 0]
    if len(rows) < 2 or len(cols) < 2:
        raise DegenerateTableError(
            f"need at least 2 non-empty rows and columns, got {len(rows)}x{len(cols)}"
        )
    n = table.n
    stat = 0.0
    for i in rows:
        for j in cols:
            expected = table.row_totals[i] * table.col_totals[j] / n
            diff = table.counts[i][j] - expected
            stat += diff * diff / expected
    dof = (len(rows) - 1) * (len(cols) - 1)
    p = regularized_gamma_q(dof / 2.0, stat / 2.0)
    return ChiSqResult(statistic=stat, dof=dof, p_value=p)


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
            result = chi_squared_test(contingency(ds, spec.name))
            p = result.p_value
            keep = p < alpha
        except DegenerateTableError:
            p, keep = 1.0, False
        scored.append((p, idx, spec.name, keep))
    scored.sort(key=lambda item: (item[0], item[1]))
    return [(name, p, keep) for p, _, name, keep in scored]

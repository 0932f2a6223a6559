"""Chi-squared independence testing and feature ranking.

The test is the uncorrected Pearson statistic over a count matrix, such as
the feature-by-label array of ``contingency``, empty rows and columns dropped
first. The upper-tail p-value is the chi-squared survival function at the
table's integer degrees of freedom, summed in its exact finite closed form
(``regularized_gamma_q``): no iteration cap can stop it short, and far in
the tail it underflows to 0 by itself.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .dataset import Dataset
from .errors import ConfigError, DataError, DegenerateTableError, UnknownFeatureError


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


def regularized_gamma_q(a: float, x: float) -> float:
    """Q(a, x) = Gamma(a, x) / Gamma(a), for *a* a positive multiple of 1/2:
    the chi-squared survival function at statistic 2x with 2a degrees of
    freedom. A finite sum gives it exactly (Abramowitz & Stegun 26.4.4-5),
    Q(a, x) = [erfc(sqrt x) if 2a is odd] + sum over k = a - 1, a - 2, ...
    down to 0 or 1/2 of x**k e**-x / Gamma(k + 1).
    """
    if not (a > 0 and float(2 * a).is_integer() and 0 <= x < math.inf):
        raise ValueError(f"require a a positive multiple of 1/2 and a finite x >= 0, got a={a}, x={x}")
    if x == 0:
        return 1.0
    half = a % 1
    terms = [math.erfc(math.sqrt(x))] if half else []
    terms += [math.exp((k + half) * math.log(x) - x - math.lgamma(k + half + 1)) for k in range(int(a))]
    return min(math.fsum(terms), 1.0)  # rounding can carry a sum just below 1 past it


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
    all the mass) get p = 1 and keep = False. An empty *ds* is refused.
    """
    check_alpha(alpha)
    if len(ds) == 0:
        raise DataError("cannot rank the features of an empty dataset")
    scored = []
    for idx, spec in enumerate(ds.schema.features):
        try:
            p = chi_squared_test(contingency(ds, spec.name)).p_value
        except DegenerateTableError:
            p = 1.0  # never below alpha, so never kept
        scored.append((p, idx, spec.name, p < alpha))
    scored.sort(key=lambda item: (item[0], item[1]))
    return [(name, p, keep) for p, _, name, keep in scored]

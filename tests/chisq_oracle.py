"""Reference oracle for the chi-squared test: the tuple table and the
per-cell double loop that ``riskminer.chisq.chi_squared_test`` replaced,
kept verbatim (``ContingencyTable`` is the old table type). The
differential test in ``test_chisq.py`` compares the library's statistic and
p-value with these bit for bit.
"""

from __future__ import annotations

from dataclasses import dataclass

from riskminer.chisq import ChiSqResult, regularized_gamma_q
from riskminer.errors import DegenerateTableError


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

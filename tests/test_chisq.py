"""Chi-squared statistic, p-value, and feature ranking.

The statistic oracle is a literal O/E double loop; the p-value oracle is
mpmath's arbitrary-precision regularized incomplete gamma, against which the
closed form is checked on a grid and by a property over 1-60 degrees of
freedom. ``chisq_oracle`` holds the tuple-table implementation that the
numpy one replaced, and the two must agree bit for bit.
"""

from __future__ import annotations

import random

import mpmath as mp
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import chisq_oracle as oracle
from conftest import toy_dataset, toy_schema
from riskminer.chisq import (
    ChiSqResult,
    chi_squared_test,
    contingency,
    rank_features,
    regularized_gamma_q,
)
from riskminer.errors import DegenerateTableError, UnknownFeatureError
from riskminer.schema import FeatureSpec, Schema

mp.mp.dps = 40


def _oracle_statistic(counts):
    rows = [r for r in counts if sum(r) > 0]
    cols = [j for j in range(len(counts[0])) if sum(r[j] for r in counts) > 0]
    n = sum(sum(r) for r in rows)
    stat = 0.0
    for r in rows:
        row_total = sum(r)
        for j in cols:
            col_total = sum(x[j] for x in rows)
            expected = row_total * col_total / n
            stat += (r[j] - expected) ** 2 / expected
    return stat


def _oracle_p(stat, dof):
    return float(mp.gammainc(mp.mpf(dof) / 2, mp.mpf(stat) / 2, mp.inf, regularized=True))


def test_contingency_direct_tally():
    ds = toy_dataset([[0, 0], [0, 1], [1, 0], [1, 1]], [0, 1, 0, 1])
    table = contingency(ds, "f0")
    assert table.tolist() == [[1, 1], [1, 1]]
    assert table.sum(axis=1).tolist() == [2, 2]
    assert table.sum(axis=0).tolist() == [2, 2]
    assert table.sum() == 4


def test_contingency_degenerate_row():
    ds = toy_dataset([[1, 0], [1, 1], [1, 0]], [0, 1, 1])
    table = contingency(ds, "f0")
    assert table.tolist() == [[0, 0], [1, 2]]
    with pytest.raises(DegenerateTableError):
        chi_squared_test(table)


def test_contingency_three_level_shape():
    schema = Schema(
        features=(
            FeatureSpec("level", "ordinal", (1, 2, 3)),
            FeatureSpec("flag", "binary", (0, 1)),
        )
    )
    ds = toy_dataset([[1, 0], [2, 0], [3, 1], [2, 1]], [0, 1, 0, 1], schema=schema)
    table = contingency(ds, "level")
    assert len(table.tolist()) == 3
    assert all(len(row) == 2 for row in table.tolist())


def test_contingency_unknown_feature():
    ds = toy_dataset([[0, 1]], [0])
    with pytest.raises(UnknownFeatureError):
        contingency(ds, "nope")


def test_chi_squared_uniform_table_is_exactly_independent():
    result = chi_squared_test([[10, 10], [10, 10]])
    assert result.statistic == 0.0
    assert result.dof == 1
    assert result.p_value == 1.0


def test_chi_squared_frozen_examples():
    # hand arithmetic: O-E = +-7.5, E = 12.5 -> 4 * 56.25 / 12.5 = 18
    result = chi_squared_test([[20, 5], [5, 20]])
    assert result.statistic == pytest.approx(18.0, abs=1e-12)
    assert result.dof == 1
    assert result.p_value == pytest.approx(2.2090496998585441e-05, abs=1e-10)

    result = chi_squared_test([[15, 5], [10, 10]])
    assert result.statistic == pytest.approx(8.0 / 3.0, abs=1e-12)
    assert result.p_value == pytest.approx(0.10247043485974943, abs=1e-10)
    assert result.p_value > 0.05  # retain independence at alpha = 0.05


def test_chi_squared_row_and_column_permutation_invariance():
    base = [[12, 3], [7, 9], [1, 14]]
    reference = chi_squared_test(base).statistic
    for rows in ([base[2], base[0], base[1]], [base[1], base[2], base[0]]):
        assert chi_squared_test(rows).statistic == pytest.approx(
            reference, abs=1e-12
        )
    flipped = [[b, a] for a, b in base]
    assert chi_squared_test(flipped).statistic == pytest.approx(
        reference, abs=1e-12
    )


def test_chi_squared_pooling_proportional_rows():
    # Rows with identical class distributions can be merged without moving
    # the statistic.
    split_rows = [[10, 20], [5, 10], [8, 2]]
    pooled_rows = [[15, 30], [8, 2]]
    a = chi_squared_test(split_rows).statistic
    b = chi_squared_test(pooled_rows).statistic
    assert a == pytest.approx(b, abs=1e-9)


def test_chi_squared_matches_oracles_on_random_tables():
    rng = random.Random(1234)
    checked = 0
    while checked < 200:
        n_rows = rng.choice([2, 3])
        counts = [[rng.randint(1, 80) for _ in range(2)] for _ in range(n_rows)]
        if sum(map(sum, counts)) > 500:
            continue
        result = chi_squared_test(counts)
        assert result.statistic == pytest.approx(_oracle_statistic(counts), abs=1e-9)
        assert result.p_value == pytest.approx(_oracle_p(result.statistic, result.dof), abs=1e-8)
        checked += 1


def _outcome(fn, table):
    try:
        result = fn(table)
    except DegenerateTableError as exc:
        return str(exc)
    return result.statistic.hex(), result.dof, result.p_value.hex()


@settings(max_examples=400, deadline=None)
@given(st.integers(2, 6).flatmap(lambda levels: st.lists(
    st.lists(st.one_of(st.just(0), st.integers(0, 30_000)), min_size=2, max_size=2),
    min_size=levels, max_size=levels)))
def test_chi_squared_matches_the_tuple_oracle_bit_for_bit(counts):
    # zero cells make empty rows and columns, and so degenerate tables
    assert _outcome(chi_squared_test, counts) == _outcome(
        oracle.chi_squared_test, oracle.ContingencyTable.from_counts(counts))


def test_chi_squared_matches_the_tuple_oracle_on_wider_matrices():
    rng = random.Random(77)
    for _ in range(300):
        shape = rng.randint(1, 5), rng.randint(1, 4)
        counts = [[rng.choice((0, rng.randint(0, 5000))) for _ in range(shape[1])] for _ in range(shape[0])]
        assert _outcome(chi_squared_test, counts) == _outcome(
            oracle.chi_squared_test, oracle.ContingencyTable.from_counts(counts))


def test_regularized_gamma_against_mpmath_grid():
    for a in (0.5, 1.0, 1.5, 2.5, 5.0, 13.0):
        for x in (0.0, 1e-8, 0.3, 1.0, 2.9, 7.0, 40.0, 300.0):
            expected = float(mp.gammainc(a, x, mp.inf, regularized=True))
            assert regularized_gamma_q(a, x) == pytest.approx(expected, abs=1e-12)


@settings(max_examples=300, deadline=None)
@given(dof=st.integers(1, 60), stat=st.one_of(
    st.floats(0.0, 3000.0), st.floats(-20.0, 3.47).map(lambda e: 10.0 ** e)))
def test_closed_form_p_value_against_mpmath(dof, stat):
    # uniform draws reach the far tail, log-uniform ones the statistics near 0
    reference = _oracle_p(stat, dof)
    assert abs(regularized_gamma_q(dof / 2, stat / 2) - reference) <= 1e-15 + 1e-13 * reference


@pytest.mark.parametrize("a, x", [(0, 1.0), (0.3, 1.0), (-1, 1.0), (float("nan"), 1.0), (1.5, -1.0)])
def test_regularized_gamma_refuses_what_no_table_has(a, x):
    with pytest.raises(ValueError):
        regularized_gamma_q(a, x)


def test_rank_features_planted_signals_lead():
    rng = random.Random(3)
    schema = toy_schema(8)
    records, labels = [], []
    for _ in range(400):
        label = rng.randint(0, 1)
        row = []
        for j in range(8):
            if j < 3:  # signal features follow the label most of the time
                row.append(label if rng.random() < 0.85 else 1 - label)
            else:
                row.append(rng.randint(0, 1))
        records.append(row)
        labels.append(label)
    ranking = rank_features(toy_dataset(records, labels, schema=schema), alpha=0.05)
    assert {name for name, _, _ in ranking[:3]} == {"f0", "f1", "f2"}
    assert all(keep for _, _, keep in ranking[:3])


def test_rank_features_label_copy_is_certain():
    rng = random.Random(4)
    records, labels = [], []
    for _ in range(400):
        label = rng.randint(0, 1)
        records.append([label, rng.randint(0, 1)])
        labels.append(label)
    ranking = rank_features(toy_dataset(records, labels), alpha=0.05)
    name, p, keep = ranking[0]
    assert name == "f0"
    assert p < 1e-30
    assert keep


def test_rank_features_degenerate_marked_not_kept():
    # f1 is constant -> degenerate table -> p = 1, keep = False
    ds = toy_dataset([[0, 1], [1, 1], [0, 1], [1, 1]], [0, 1, 1, 0])
    ranking = rank_features(ds, alpha=0.05)
    entry = [item for item in ranking if item[0] == "f1"][0]
    assert entry[1] == 1.0
    assert entry[2] is False


def test_rank_features_tie_order_is_schema_order():
    # two identical, perfectly independent features tie at p = 1
    ds = toy_dataset([[0, 0], [0, 0], [1, 1], [1, 1]], [0, 1, 0, 1])
    ranking = rank_features(ds, alpha=0.05)
    assert [name for name, _, _ in ranking] == ["f0", "f1"]


def test_chisq_result_type():
    result = chi_squared_test([[5, 1], [2, 6]])
    assert isinstance(result, ChiSqResult)
    assert result.statistic >= 0
    assert 0.0 <= result.p_value <= 1.0

"""Differential tests: the block neighbour search, the vectorised SMOTE, the
table-driven dissolution, the tidset Apriori and the once-planned generator
against the per-record implementations kept in ``data_oracle``."""

from __future__ import annotations

from unittest import mock

import numpy as np
import pytest
from hypothesis import given, reject, settings
from hypothesis import strategies as st

import data_oracle as oracle
from conftest import toy_dataset, toy_schema
from riskminer import smote
from riskminer.errors import (
    ClassTooSmallError,
    ConfigError,
    PoolTooSmallError,
    TargetBelowCurrentError,
    UnmappedFeatureError,
)
from riskminer.generate import GenSpec, PlantedFactor, PlantedRule, generate_synthetic
from riskminer.mining import FactorEntry, FactorMap, apriori, dissolve_dataset
from riskminer.schema import FeatureSpec, Schema, default_schema
from riskminer.smote import knn_categorical, nearest_in_pool, resolve_targets, smote_n

# -- neighbours --------------------------------------------------------------


@st.composite
def coded_datasets(draw, min_rows=2, max_rows=40):
    """Records of width 2-8 over 2-4 codes, with some rows copied so that
    equal records force distance ties, and both classes present."""
    width = draw(st.integers(2, 8))
    n_codes = draw(st.integers(2, 4))
    n = draw(st.integers(max(min_rows, 2), max_rows))
    code = st.integers(0, n_codes - 1)
    records = draw(st.lists(st.lists(code, min_size=width, max_size=width), min_size=n, max_size=n))
    for _ in range(draw(st.integers(0, n // 2))):
        src, dst = draw(st.integers(0, n - 1)), draw(st.integers(0, n - 1))
        records[dst] = list(records[src])
    labels = draw(st.lists(st.integers(0, 1), min_size=n, max_size=n))
    labels[0], labels[1] = 0, 1
    return toy_dataset(records, labels, schema=toy_schema(width, values=tuple(range(n_codes))))


@settings(max_examples=150, deadline=None)
@given(coded_datasets())
def test_knn_matches_oracle_for_every_member(ds):
    for index in range(len(ds)):
        pool = ds.class_counts()[ds.labels[index]] - 1
        for k in {1, 2, pool, pool + 1}:
            if k < 1:
                continue
            if k > pool:
                with pytest.raises(PoolTooSmallError):
                    knn_categorical(ds, index, k)
                with pytest.raises(PoolTooSmallError):
                    oracle.knn_categorical(ds, index, k)
                continue
            assert knn_categorical(ds, index, k) == oracle.knn_categorical(ds, index, k)


@settings(max_examples=150, deadline=None)
@given(coded_datasets(min_rows=4), st.integers(1, 6), st.sampled_from([1, 64, 1 << 20]))
def test_block_search_matches_oracle_whatever_the_block_size(ds, k, block_bytes):
    # a tiny byte budget makes one-row blocks, so block edges are crossed
    matrix = np.asarray(ds.records, dtype=np.int16)
    labels = np.asarray(ds.labels)
    for label in (0, 1):
        pool = np.flatnonzero(labels == label)
        if len(pool) <= k:
            continue
        with mock.patch.object(smote, "_BLOCK_BYTES", block_bytes):
            got = nearest_in_pool(matrix, pool, np.arange(len(pool)), k)
        want = [oracle.knn_categorical(ds, int(p), k) for p in pool]
        assert got.tolist() == want


def test_knn_duplicates_tie_to_lower_positions():
    # every record equals the query: the nearest are the lowest other positions
    ds = toy_dataset([[1, 0, 1]] * 6 + [[0, 0, 0]], [1] * 7)
    assert knn_categorical(ds, 3, k=4) == [0, 1, 2, 4]
    assert knn_categorical(ds, 0, k=6) == [1, 2, 3, 4, 5, 6]
    with pytest.raises(PoolTooSmallError):
        knn_categorical(ds, 0, k=7)


# -- SMOTE -------------------------------------------------------------------


@st.composite
def smote_problems(draw):
    ds = draw(coded_datasets(min_rows=2, max_rows=50))
    counts = ds.class_counts()
    k = draw(st.integers(1, 4))
    # mostly valid targets; sometimes below the current count or on a class
    # too small for k, so both implementations must raise the same error
    targets = {c: counts[c] + draw(st.integers(-2, 40)) for c in counts}
    seed = draw(st.integers(0, 2**32 - 1))
    return ds, targets, k, seed


def _outcome(fn, ds, targets, k, seed):
    try:
        return fn(ds, targets, k, seed)
    except (ClassTooSmallError, TargetBelowCurrentError) as exc:
        return type(exc), str(exc)


@settings(max_examples=200, deadline=None)
@given(smote_problems())
def test_smote_matches_oracle_record_for_record(problem):
    got = _outcome(smote_n, *problem)
    want = _outcome(oracle.smote_n, *problem)
    if isinstance(want, tuple):
        assert got == want
    else:
        assert got.records == want.records
        assert got.labels == want.labels


def test_smote_errors_match_oracle():
    ds = toy_dataset([[0, 0], [1, 1], [1, 0], [0, 1]], [0, 1, 1, 1])
    below = {1: 2}
    small = {0: 5}
    for targets, error in ((below, TargetBelowCurrentError), (small, ClassTooSmallError)):
        for fn in (smote_n, oracle.smote_n):
            with pytest.raises(error):
                fn(ds, targets, k=1, seed=0)


def test_smote_matches_oracle_on_a_generated_survey():
    from riskminer.generate import GenSpec, generate_synthetic

    ds = generate_synthetic(GenSpec(n_records=1200, class_balance=0.3, seed=19))
    targets = resolve_targets(ds, True, None)
    got, want = smote_n(ds, targets, k=5, seed=8), oracle.smote_n(ds, targets, k=5, seed=8)
    assert got.records == want.records and got.labels == want.labels


# -- dissolution -------------------------------------------------------------


def test_dissolve_dataset_matches_oracle_item_order():
    from riskminer.generate import GenSpec, generate_synthetic
    from riskminer.mining import default_factor_map

    ds = generate_synthetic(GenSpec(n_records=400, seed=3))
    fm = default_factor_map()
    got, want = dissolve_dataset(ds, fm), oracle.dissolve_dataset(ds, fm)
    assert got == want
    assert [list(t) for t in got] == [list(t) for t in want]


def test_dissolve_dataset_first_entry_wins_and_unmapped_codes_raise():
    fm = FactorMap(
        entries=(
            FactorEntry(7, "f1", 1, "f1 yes"),
            FactorEntry(3, "f0", 0, "f0 no"),
            FactorEntry(4, "f0", 1, "f0 yes"),
            FactorEntry(5, "f0", 1, "f0 yes again"),
            FactorEntry(8, "f1", 0, "f1 no"),
        ),
        victim_item=9,
    )
    ds = toy_dataset([[1, 0, 2], [0, 1, 0]], [1, 0], schema=toy_schema(3, values=(0, 1, 2)))
    assert dissolve_dataset(ds, fm) == oracle.dissolve_dataset(ds, fm) == [
        frozenset({4, 8, 9}),
        frozenset({3, 7}),
    ]
    bad = toy_dataset([[1, 2, 0]], [0], schema=toy_schema(3, values=(0, 1, 2)))
    for fn in (dissolve_dataset, oracle.dissolve_dataset):
        with pytest.raises(UnmappedFeatureError, match="f1"):
            fn(bad, fm)


# -- Apriori -----------------------------------------------------------------


@st.composite
def mining_problems(draw):
    n_items = draw(st.integers(1, 10))
    item = st.integers(1, n_items)
    transactions = draw(
        st.lists(st.frozensets(item, max_size=n_items), min_size=1, max_size=60)
    )
    n = len(transactions)
    # supports on a count boundary c / n, the top 1.0, and arbitrary fractions
    min_support = draw(
        st.one_of(
            st.integers(1, n).map(lambda c: c / n),
            st.just(1.0),
            st.floats(0.01, 1.0, allow_nan=False),
        )
    )
    return transactions, min_support


def _assert_same_lattice(transactions, min_support):
    got = apriori(transactions, min_support)
    want = oracle.apriori(transactions, min_support)
    assert got == want
    assert list(got) == list(want)
    return got


@settings(max_examples=400, deadline=None)
@given(mining_problems())
def test_apriori_matches_oracle(problem):
    _assert_same_lattice(*problem)


def test_apriori_lattice_that_stops_after_singletons():
    # every item is frequent alone but no two ever meet
    transactions = [frozenset({i % 4}) for i in range(20)]
    got = _assert_same_lattice(transactions, 0.25)
    assert got == {frozenset({i}): 0.25 for i in range(4)}


def test_apriori_support_exactly_on_a_count():
    transactions = [frozenset({1, 2})] * 3 + [frozenset({1})] * 4
    got = _assert_same_lattice(transactions, 3 / 7)
    assert got[frozenset({1, 2})] == 3 / 7
    assert _assert_same_lattice(transactions, 1.0) == {frozenset({1}): 1.0}


def test_apriori_matches_oracle_on_a_dissolved_survey():
    from riskminer.generate import GenSpec, generate_synthetic
    from riskminer.mining import default_factor_map

    ds = generate_synthetic(GenSpec(n_records=300, seed=11))
    fm = default_factor_map()
    transactions = dissolve_dataset(ds, fm.restrict(fm.features[:8]))
    got = _assert_same_lattice(transactions, 0.1)
    assert max(map(len, got)) >= 3


# -- generator ---------------------------------------------------------------


@st.composite
def schemas(draw):
    """The shipped schema, or 1-8 features over 1-5 codes out of -1-9 and
    a few wide ones, past int64 among them."""
    if draw(st.booleans()):
        return default_schema()
    code = st.integers(-1, 9) | st.sampled_from([300, 2**63, -2**63 - 1])
    codes = st.lists(code, min_size=1, max_size=5, unique=True).map(tuple)
    return Schema(features=tuple(
        FeatureSpec(f"f{i}", "discrete", values) for i, values in enumerate(draw(st.lists(codes, min_size=1, max_size=8)))))


def _bayes_cap(balance: float, victim_prob: float) -> float:
    """The largest marginal (or coverage) that *victim_prob* leaves feasible
    for both classes at *balance*."""
    return min(1.0, balance / victim_prob if victim_prob else 1.0,
               (1 - balance) / (1 - victim_prob) if victim_prob < 1 else 1.0)


@st.composite
def gen_specs(draw):
    """0-4 planted factors, an optional rule of 1-3 factors and noise
    marginals on up to 3 features, each on random codes; marginals and
    coverage are drawn below their Bayes caps, so few specs are refused."""
    schema = draw(schemas())
    names = draw(st.permutations(schema.feature_names))
    balance = draw(st.floats(0.05, 0.95))
    fraction = st.floats(0.0, 1.0, exclude_min=True, exclude_max=True)
    n_factors = draw(st.integers(0, min(4, len(names))))
    factors = []
    for name in names[:n_factors]:
        victim_prob = draw(st.floats(0.0, 1.0))
        factors.append(PlantedFactor(name, draw(st.sampled_from(schema.feature(name).values)), victim_prob,
                                     draw(fraction) * _bayes_cap(balance, victim_prob)))
    rule = None
    n_rule = draw(st.integers(0, min(3, len(names) - n_factors)))
    if n_rule:
        victim_prob = draw(st.floats(0.0, 1.0))
        rule = PlantedRule(tuple((name, draw(st.sampled_from(schema.feature(name).values)))
                                 for name in names[n_factors:n_factors + n_rule]),
                           victim_prob, draw(fraction) * _bayes_cap(balance, victim_prob))
    noise = {}
    for name in draw(st.lists(st.sampled_from(names), max_size=3, unique=True)):
        codes = draw(st.lists(st.sampled_from(schema.feature(name).values), min_size=1, unique=True))
        noise[name] = {code: draw(st.floats(0.0, 1.0)) for code in codes}
    try:
        return GenSpec(n_records=draw(st.integers(1, 300)), class_balance=balance, planted_factors=tuple(factors),
                       planted_rule=rule, noise_marginals=noise, seed=draw(st.integers(0, 2**32)), schema=schema)
    except ConfigError:
        reject()


@settings(max_examples=400, deadline=None)
@given(gen_specs())
def test_generator_matches_oracle_draw_for_draw(spec):
    got, want = generate_synthetic(spec), oracle.generate_synthetic(spec)
    assert got.codes.dtype == want.codes.dtype
    assert np.array_equal(got.codes, want.codes) and np.array_equal(got.y, want.y)

"""Categorical SMOTE: neighbour search and synthesis invariants."""

from __future__ import annotations

import random

import pytest

from conftest import toy_dataset
from riskminer.errors import ClassTooSmallError, DataError, PoolTooSmallError, TargetBelowCurrentError
from riskminer.smote import knn_categorical, resolve_targets, smote_n


def test_knn_hand_ordering():
    # A=(0,0,0), B=(0,0,1), C=(1,1,1): Hamming(A,B)=1, Hamming(A,C)=3
    ds = toy_dataset([[0, 0, 0], [0, 0, 1], [1, 1, 1]], [1, 1, 1])
    assert knn_categorical(ds, 0, k=1) == [1]
    assert knn_categorical(ds, 0, k=2) == [1, 2]


def test_knn_tie_breaks_to_lower_position():
    # positions 1 and 2 are both at distance 1 from the query
    ds = toy_dataset([[0, 0, 0], [0, 0, 1], [0, 1, 0]], [1, 1, 1])
    assert knn_categorical(ds, 0, k=1) == [1]


def test_knn_respects_class_restriction():
    ds = toy_dataset([[0, 0, 0], [0, 0, 1], [0, 1, 0]], [1, 0, 1])
    assert knn_categorical(ds, 0, k=1) == [2]  # position 1 is nearer, but of the other class


def test_knn_pool_too_small():
    ds = toy_dataset([[0, 0, 0], [0, 0, 1]], [1, 0])
    with pytest.raises(PoolTooSmallError):
        knn_categorical(ds, 0, k=1)


def test_an_empty_dataset_is_refused_even_with_nothing_to_grow():
    ds = toy_dataset([[0, 0, 0], [1, 1, 1]], [0, 1]).subset([])
    with pytest.raises(DataError, match="cannot augment an empty dataset"):
        smote_n(ds, {0: 0, 1: 0}, k=1, seed=0)


def test_smote_noop_when_targets_met():
    ds = toy_dataset([[0, 0, 0], [0, 1, 1], [1, 1, 1], [1, 0, 0]], [0, 0, 1, 1])
    out = smote_n(ds, {0: 2, 1: 2}, k=1, seed=3)
    assert out.records == ds.records
    assert out.labels == ds.labels


def test_smote_identical_records_synthesize_themselves():
    ds = toy_dataset([[1, 0, 1], [1, 0, 1], [0, 0, 0], [0, 1, 0]], [1, 1, 0, 0])
    out = smote_n(ds, {1: 5}, k=1, seed=7)
    assert len(out) == 7
    for rec, lab in zip(out.records[4:], out.labels[4:]):
        assert rec == (1, 0, 1)
        assert lab == 1


def test_smote_mixes_only_varying_attributes():
    # Seed (1,0,1) and sole neighbour (1,1,1): attributes 1 and 3 always 1.
    ds = toy_dataset([[1, 0, 1], [1, 1, 1], [0, 0, 0], [0, 1, 0]], [1, 1, 0, 0])
    out = smote_n(ds, {1: 12}, k=1, seed=5)
    synthetics = out.records[4:]
    assert len(synthetics) == 10
    for rec in synthetics:
        assert rec[0] == 1 and rec[2] == 1
        assert rec in {(1, 0, 1), (1, 1, 1)}
    assert {rec[1] for rec in synthetics} == {0, 1}  # the coin actually flips


def test_smote_errors():
    ds = toy_dataset([[0, 0, 0], [1, 1, 1], [1, 0, 1]], [0, 1, 1])
    with pytest.raises(TargetBelowCurrentError):
        smote_n(ds, {1: 1}, k=1, seed=0)
    with pytest.raises(ClassTooSmallError):
        smote_n(ds, {0: 5}, k=1, seed=0)


def test_smote_large_balanced_growth():
    rng = random.Random(2)
    records = [[rng.randint(0, 1) for _ in range(6)] for _ in range(700)]
    labels = [1 if i < 350 else 0 for i in range(700)]
    ds = toy_dataset(records, labels)
    out = smote_n(ds, {0: 1643, 1: 1643}, k=5, seed=42)
    assert len(out) == 3286
    assert out.class_counts() == {0: 1643, 1: 1643}
    assert out.records[:700] == ds.records


@pytest.mark.parametrize("balance, total, want", [
    # every class grows to the majority size
    pytest.param(True, None, {0: 2, 1: 2}, id="balance"),
    # an even split, the odd record to the victim class
    pytest.param(True, 9, {0: 4, 1: 5}, id="balance-odd-total"),
    pytest.param(True, 8, {0: 4, 1: 4}, id="balance-even-total"),
    # each class along its current share; the largest remainder takes the extra record
    pytest.param(False, 9, {0: 6, 1: 3}, id="proportional"),
    pytest.param(False, 4, {0: 3, 1: 1}, id="proportional-remainder"),
    # the current counts: nothing grows
    pytest.param(False, None, {0: 2, 1: 1}, id="neither"),
])
def test_resolve_targets(balance, total, want):
    ds = toy_dataset([[0, 0], [0, 1], [1, 1]], [0, 0, 1])
    assert resolve_targets(ds, balance, total) == want


def test_resolve_targets_refuses_a_proportional_total_below_the_current_size():
    ds = toy_dataset([[0, 0], [0, 1], [1, 1]], [0, 0, 1])
    with pytest.raises(TargetBelowCurrentError, match=r"^smote.target_total 2 is below the row count 3$"):
        resolve_targets(ds, False, 2)


def _random_config(rng: random.Random):
    width = rng.randint(3, 8)
    n_values = rng.choice([2, 2, 3])
    values = (0, 1) if n_values == 2 else (0, 1, 2)
    n = rng.randint(20, 60)
    records = [[rng.choice(values) for _ in range(width)] for _ in range(n)]
    labels = [rng.randint(0, 1) for _ in range(n)]
    # guarantee enough members per class for k+1
    k = rng.choice([1, 2, 3])
    for i in range(k + 1):
        labels[i] = 0
        labels[n - 1 - i] = 1
    ds = toy_dataset(records, labels)
    counts = ds.class_counts()
    targets = {c: counts[c] + rng.randint(0, 30) for c in counts}
    return ds, targets, k, rng.randint(0, 10_000)


def test_smote_invariants_random_configs():
    rng = random.Random(99)
    for _ in range(20):
        ds, targets, k, seed = _random_config(rng)
        out = smote_n(ds, targets, k, seed)
        again = smote_n(ds, targets, k, seed)
        # determinism
        assert out.records == again.records and out.labels == again.labels
        # prefix preservation
        assert out.records[: len(ds)] == ds.records
        assert out.labels[: len(ds)] == ds.labels
        # exact per-class sizing
        assert out.class_counts() == targets
        # value closure: synthetic values occur among same-class originals
        by_class = {
            c: {tuple(r) for r, lab in zip(ds.records, ds.labels) if lab == c}
            for c in targets
        }
        for rec, lab in zip(out.records[len(ds):], out.labels[len(ds):]):
            for j, value in enumerate(rec):
                assert any(orig[j] == value for orig in by_class[lab])

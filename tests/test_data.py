"""Dataset loading, validation, splitting, and the synthetic generator."""

from __future__ import annotations

import random

import pytest

from riskminer.chisq import rank_features
from riskminer.dataset import load_dataset, split_dataset, write_csv
from riskminer.errors import (
    ConfigError,
    EmptyClassError,
    HeaderMismatchError,
    IllegalValueError,
    MissingColumnError,
    RaggedRowError,
    RatioSumError,
)
from riskminer.generate import GenSpec, PlantedFactor, PlantedRule, generate_synthetic
from riskminer.schema import FeatureSpec, Schema, default_schema

from conftest import toy_dataset, toy_schema


def _write_default_csv(path, rows):
    schema = default_schema()
    header = ",".join(schema.feature_names) + ",victim"
    path.write_text("\n".join([header] + rows) + "\n", encoding="utf-8")
    return schema


def _valid_row(schema, victim=0):
    cells = []
    for spec in schema.features:
        cells.append(str(min(spec.values)))
    cells.append(str(victim))
    return ",".join(cells)


def test_load_valid_rows(tmp_path):
    schema = default_schema()
    rows = [_valid_row(schema, v) for v in (0, 1, 0, 1)]
    path = tmp_path / "data.csv"
    _write_default_csv(path, rows)
    ds = load_dataset(path, schema)
    assert len(ds) == 4
    assert ds.labels == (0, 1, 0, 1)


def test_load_illegal_binary_value(tmp_path):
    schema = default_schema()
    rows = [_valid_row(schema), _valid_row(schema)]
    bad = _valid_row(schema).split(",")
    bad[schema.index_of("weak-password")] = "2"
    rows.append(",".join(bad))
    path = tmp_path / "data.csv"
    _write_default_csv(path, rows)
    with pytest.raises(IllegalValueError) as err:
        load_dataset(path, schema)
    assert err.value.row == 3
    assert err.value.column == "weak-password"
    assert err.value.value == 2


def test_load_missing_column(tmp_path):
    schema = default_schema()
    names = [n for n in schema.feature_names if n != "age-range"]
    path = tmp_path / "data.csv"
    path.write_text(",".join(names) + ",victim\n", encoding="utf-8")
    with pytest.raises(MissingColumnError) as err:
        load_dataset(path, schema)
    assert err.value.column == "age-range"


def test_load_misordered_header(tmp_path):
    schema = default_schema()
    names = list(schema.feature_names)
    names[0], names[1] = names[1], names[0]
    path = tmp_path / "data.csv"
    path.write_text(",".join(names) + ",victim\n", encoding="utf-8")
    with pytest.raises(HeaderMismatchError):
        load_dataset(path, schema)


def test_load_ragged_row(tmp_path):
    schema = default_schema()
    path = tmp_path / "data.csv"
    _write_default_csv(path, [_valid_row(schema), _valid_row(schema) + ",0"])
    with pytest.raises(RaggedRowError) as err:
        load_dataset(path, schema)
    assert err.value.row == 2


def test_csv_round_trip(tmp_path):
    schema = default_schema()
    rng = random.Random(11)
    rows = []
    for _ in range(25):
        cells = [str(rng.choice(spec.values)) for spec in schema.features]
        cells.append(str(rng.randint(0, 1)))
        rows.append(",".join(cells))
    src = tmp_path / "src.csv"
    _write_default_csv(src, rows)
    ds = load_dataset(src, schema)
    dst = tmp_path / "dst.csv"
    write_csv(ds, dst)
    assert (
        src.read_text(encoding="utf-8").rstrip("\n")
        == dst.read_text(encoding="utf-8").rstrip("\n")
    )


# -- splitting --------------------------------------------------------------

def _balanced_dataset(n, width=3, seed=5):
    rng = random.Random(seed)
    records = [[rng.randint(0, 1) for _ in range(width)] for _ in range(n)]
    labels = [i % 2 for i in range(n)]
    rng.shuffle(labels)
    return toy_dataset(records, labels)


def test_split_sizes_match_validation_partition():
    ds = _balanced_dataset(3286)
    bundle = split_dataset(ds, (0.75, 0.175, 0.075), seed=1, stratified=True)
    assert (len(bundle.train), len(bundle.test), len(bundle.validation)) == (2464, 575, 247)


def test_split_sizes_small_exact():
    ds = _balanced_dataset(10)
    bundle = split_dataset(ds, (0.8, 0.1, 0.1), seed=3, stratified=False)
    assert (len(bundle.train), len(bundle.test), len(bundle.validation)) == (8, 1, 1)


def test_split_deterministic():
    ds = _balanced_dataset(200)
    a = split_dataset(ds, (0.75, 0.175, 0.075), seed=9, stratified=True)
    b = split_dataset(ds, (0.75, 0.175, 0.075), seed=9, stratified=True)
    assert a.train.records == b.train.records
    assert a.test.records == b.test.records
    assert a.validation.records == b.validation.records
    assert a.train.labels == b.train.labels


def test_split_partitions_input():
    ds = _balanced_dataset(101)
    bundle = split_dataset(ds, (0.6, 0.2, 0.2), seed=2, stratified=True)
    seen = sorted(
        list(bundle.train.records) + list(bundle.test.records) + list(bundle.validation.records)
    )
    assert seen == sorted(ds.records)
    assert len(bundle.train) + len(bundle.test) + len(bundle.validation) == 101


def test_split_stratification_bound():
    rng = random.Random(17)
    records = [[rng.randint(0, 1) for _ in range(3)] for _ in range(400)]
    labels = [1 if i < 130 else 0 for i in range(400)]
    rng.shuffle(labels)
    ds = toy_dataset(records, labels)
    whole = sum(ds.labels) / len(ds)
    bundle = split_dataset(ds, (0.75, 0.175, 0.075), seed=21, stratified=True)
    for part in (bundle.train, bundle.test, bundle.validation):
        frac = sum(part.labels) / len(part)
        assert abs(frac - whole) <= 2.0 / len(part)


def test_split_bad_ratios():
    ds = _balanced_dataset(20)
    with pytest.raises(RatioSumError):
        split_dataset(ds, (0.5, 0.4, 0.2), seed=0)
    with pytest.raises(RatioSumError):
        split_dataset(ds, (1.0, -0.1, 0.1), seed=0)


def test_split_empty_class():
    records = [[0, 0, 0]] * 10
    ds = toy_dataset(records, [0] * 10)
    with pytest.raises(EmptyClassError):
        split_dataset(ds, (0.6, 0.2, 0.2), seed=0, stratified=True)


# -- generator ----------------------------------------------------------------

def test_generate_counts_and_domains():
    spec = GenSpec(n_records=500, class_balance=0.5, seed=4)
    ds = generate_synthetic(spec)
    assert len(ds) == 500
    for rec in ds.records:
        for feature_spec, value in zip(ds.schema.features, rec):
            assert value in feature_spec.values
    victims = sum(ds.labels)
    assert 200 <= victims <= 300  # fixed by the seed; loose sanity bound


def test_generate_deterministic():
    spec = GenSpec(n_records=120, seed=8)
    first = generate_synthetic(spec)
    second = generate_synthetic(spec)
    assert first.records == second.records
    assert first.labels == second.labels


def test_generate_planted_conditional_rate():
    planted = PlantedFactor("clicked-on-spam-email-links", 1, victim_prob=0.9)
    spec = GenSpec(n_records=3286, class_balance=0.5, planted_factors=(planted,), seed=13)
    ds = generate_synthetic(spec)
    col = ds.codes[:, ds.schema.index_of("clicked-on-spam-email-links")]
    hits = [lab for value, lab in zip(col, ds.labels) if value == 1]
    assert abs(sum(hits) / len(hits) - 0.9) <= 0.05


def test_generate_zero_planted_is_noise():
    # With nothing planted, nearly all features should fail to reject
    # independence; average over a handful of fixed seeds.
    counts = []
    for seed in range(6):
        ds = generate_synthetic(GenSpec(n_records=800, seed=seed))
        ranking = rank_features(ds, alpha=0.05)
        counts.append(sum(1 for _, p, _ in ranking if p > 0.05))
    assert sum(counts) / len(counts) >= 23.0


def test_generate_planted_rule_confidence():
    rule = PlantedRule(
        factors=(("weak-password", 1), ("accessed-VPN", 1), ("compulsive-buyer", 1)),
        victim_prob=0.9,
        coverage=0.35,
    )
    spec = GenSpec(n_records=3286, class_balance=0.5, planted_rule=rule, seed=2)
    ds = generate_synthetic(spec)
    cols = [ds.codes[:, ds.schema.index_of(f)] for f, _ in rule.factors]
    combo = [all(c[i] == 1 for c in cols) for i in range(len(ds))]
    n_combo = sum(combo)
    n_combo_victim = sum(1 for i, hit in enumerate(combo) if hit and ds.labels[i] == 1)
    assert abs(n_combo / len(ds) - 0.35) <= 0.03
    assert abs(n_combo_victim / n_combo - 0.9) <= 0.03
    assert abs(sum(ds.labels) / len(ds) - 0.5) <= 0.03


def test_generate_rejects_incoherent_spec():
    with pytest.raises(ConfigError):
        GenSpec(n_records=10, planted_factors=(PlantedFactor("nope", 1, 0.9),))
    with pytest.raises(ConfigError):
        # P(value | victim) would exceed 1
        GenSpec(
            n_records=10,
            class_balance=0.2,
            planted_factors=(PlantedFactor("weak-password", 1, victim_prob=0.9, marginal=0.5),),
        )
    with pytest.raises(ConfigError):
        GenSpec(n_records=0)
    one_code = Schema(features=(FeatureSpec("f", "ordinal", (3,)), FeatureSpec("g", "binary", (0, 1))))
    with pytest.raises(ConfigError):  # a record off the rule could never miss its combination
        GenSpec(n_records=10, schema=one_code, planted_rule=PlantedRule((("f", 3),), victim_prob=0.9, coverage=0.35))
    with pytest.raises(ConfigError):  # every record carries the one code, so nothing is planted
        GenSpec(n_records=10, schema=one_code, planted_factors=(PlantedFactor("f", 3, victim_prob=0.8),))


def test_generator_refuses_two_factors_planted_on_one_feature():
    # the generator plants one factor per feature, so the second would silently replace the first
    twice = (PlantedFactor("weak-password", 1, 0.9), PlantedFactor("weak-password", 0, 0.2))
    with pytest.raises(ConfigError, match="weak-password"):
        GenSpec(n_records=10, planted_factors=twice)
    GenSpec(n_records=10, planted_factors=twice[:1])


@pytest.mark.parametrize("dist", [
    {1: float("inf"), 0: 1.0},  # inf / inf: every record would draw code 1
    {1: 1e308, 0: 1e308},  # the sum overflows
    {1: float("nan"), 0: 1.0},
])
def test_generator_refuses_noise_probabilities_without_a_finite_sum(dist):
    with pytest.raises(ConfigError):
        GenSpec(n_records=10, noise_marginals={"weak-password": dist})


def test_toy_schema_rejects_goal_collision():
    schema = toy_schema(2)
    assert "f0" in schema
    with pytest.raises(KeyError):
        schema.index_of("missing")

"""Dissolution, Apriori, and rule derivation against exhaustive oracles."""

from __future__ import annotations

import random
import tracemalloc
from itertools import chain, combinations

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import data_oracle as oracle
from conftest import toy_dataset, toy_schema
from data_oracle import dissolve, factor_for
from riskminer import pipeline
from riskminer.dataset import Dataset
from riskminer.errors import ConfigError, DataError, UnmappedFeatureError, ZeroAntecedentSupportError
from riskminer.generate import GenSpec, generate_synthetic
from riskminer.mining import (
    FactorEntry,
    FactorMap,
    Rule,
    apriori,
    dataset_itemsets,
    default_factor_map,
    derive_rules,
    dissolve_dataset,
    rule_metrics,
)
from riskminer.schema import default_schema


def test_default_factor_map_catalog():
    fm = default_factor_map()
    assert sorted(e.factor_id for e in fm.entries) == list(range(1, 39))
    assert fm.victim_item == 39
    assert len(fm.features) == 19
    # every mapped feature contributes a yes and a no factor
    for feature in fm.features:
        values = {e.value for e in fm.entries if e.feature == feature}
        assert values == {0, 1}


def test_dissolve_weak_password_factors():
    fm = default_factor_map()
    assert factor_for(fm, "weak-password", 1) == 1
    assert factor_for(fm, "weak-password", 0) == 2
    # the compulsive-buyer catalog lists its "no" factor first
    assert factor_for(fm, "compulsive-buyer", 0) == 7
    assert factor_for(fm, "compulsive-buyer", 1) == 8


def test_dissolve_victim_item_and_width():
    fm = default_factor_map()
    record = {feature: 1 for feature in fm.features}
    victim = dissolve(record, 1, fm)
    civilian = dissolve(record, 0, fm)
    assert 39 in victim
    assert 39 not in civilian
    assert len(civilian) == 19
    assert len(victim) == 20


def test_dissolve_missing_feature():
    fm = default_factor_map()
    with pytest.raises(UnmappedFeatureError):
        dissolve({"weak-password": 1}, 0, fm)


def test_dissolve_dataset_missing_feature():
    ds = toy_dataset([[1, 0]], [0])  # its schema holds none of the catalog's features
    with pytest.raises(UnmappedFeatureError):
        dissolve_dataset(ds, default_factor_map())


def test_factor_map_restrict_keeps_ids():
    fm = default_factor_map().restrict(["weak-password", "accessed-VPN"])
    assert sorted(e.factor_id for e in fm.entries) == [1, 2, 23, 24]
    assert fm.features == ("weak-password", "accessed-VPN")


def test_factor_map_rejects_non_binary_dissolution():
    with pytest.raises(ConfigError):
        FactorMap(entries=(FactorEntry(1, "only-yes", 1, "yes"),))


# -- apriori -----------------------------------------------------------------

A, B, V = 1, 2, 39
TOY = [frozenset({A, B, V}), frozenset({A, B, V}), frozenset({A, B}), frozenset({B, V})]


def test_apriori_toy_lattice_exact():
    got = apriori(TOY, min_support=0.5)
    expected = {
        frozenset({A}): 0.75,
        frozenset({B}): 1.0,
        frozenset({V}): 0.75,
        frozenset({A, B}): 0.75,
        frozenset({B, V}): 0.75,
        frozenset({A, V}): 0.5,
        frozenset({A, B, V}): 0.5,
    }
    assert got == expected


def test_apriori_min_support_one():
    got = apriori(TOY, min_support=1.0)
    assert got == {frozenset({B}): 1.0}


def _powerset(items):
    return chain.from_iterable(combinations(items, r) for r in range(1, len(items) + 1))


def _brute_force_itemsets(transactions, min_support):
    universe = sorted(set().union(*transactions)) if transactions else []
    n = len(transactions)
    out = {}
    for subset in _powerset(universe):
        s = frozenset(subset)
        support = sum(1 for t in transactions if s <= t) / n
        if support >= min_support:
            out[s] = support
    return out


def _brute_force_rules(itemsets, min_confidence, consequent, cap):
    consequent = frozenset(consequent)
    if consequent not in itemsets:
        return []
    out = []
    for s, support in itemsets.items():
        if s != consequent and consequent <= s:
            antecedent = s - consequent
            conf = support / itemsets[antecedent]
            if conf >= min_confidence:
                out.append(
                    Rule(antecedent, consequent, support, conf, conf / itemsets[consequent])
                )
    out.sort(key=lambda r: (-r.confidence, -r.support, tuple(sorted(r.antecedent))))
    return out[:cap]


def test_apriori_downward_closure_and_oracle_equivalence():
    rng = random.Random(77)
    for trial in range(50):
        n_items = rng.randint(4, 12)
        n_tx = rng.randint(6, 64)
        victim_item = n_items  # arbitrary distinguished item
        transactions = []
        for _ in range(n_tx):
            size = rng.randint(1, n_items)
            items = set(rng.sample(range(1, n_items + 1), size))
            transactions.append(frozenset(items))
        min_support = rng.choice([0.1, 0.25, 0.5])
        got = apriori(transactions, min_support)
        expected = _brute_force_itemsets(transactions, min_support)
        assert got == expected
        # downward closure
        for s in got:
            for item in s:
                assert s - {item} in got or len(s) == 1
        # victim-consequent rules identical to the brute-force derivation
        rules = derive_rules(got, 0.6, frozenset({victim_item}), cap=10_000)
        assert rules == _brute_force_rules(expected, 0.6, {victim_item}, 10_000)


def test_derive_rules_toy_confidences():
    itemsets = apriori(TOY, min_support=0.4)
    rules = derive_rules(itemsets, min_confidence=0.7, consequent=frozenset({V}))
    by_antecedent = {tuple(sorted(r.antecedent)): r for r in rules}
    rule_b = by_antecedent[(B,)]
    assert rule_b.confidence == pytest.approx(0.75)
    assert rule_b.lift == pytest.approx(1.0)
    # A & B -> V has confidence 2/3 and is excluded at 0.8
    strict = derive_rules(itemsets, min_confidence=0.8, consequent=frozenset({V}))
    assert all(tuple(sorted(r.antecedent)) != (A, B) for r in strict)


def test_derive_rules_absent_consequent():
    itemsets = apriori([frozenset({A}), frozenset({A, B})], min_support=0.5)
    assert derive_rules(itemsets, 0.5, frozenset({V})) == []


def test_derive_rules_cap_and_order():
    rng = random.Random(5)
    transactions = []
    for _ in range(40):
        items = {i for i in range(1, 7) if rng.random() < 0.7}
        items.add(V)
        transactions.append(frozenset(items))
    itemsets = apriori(transactions, 0.1)
    rules = derive_rules(itemsets, 0.2, frozenset({V}), cap=5)
    assert len(rules) == 5
    keys = [(-r.confidence, -r.support, tuple(sorted(r.antecedent))) for r in rules]
    assert keys == sorted(keys)


def test_rule_metrics_independence_arithmetic():
    transactions = [frozenset({A, B}), frozenset({A}), frozenset({A, B}), frozenset({A})]
    rule = Rule(frozenset({A}), frozenset({B}), 0.5, 0.5, 1.0)
    support, confidence, lift = rule_metrics(rule, transactions)
    assert support == pytest.approx(0.5)
    assert confidence == pytest.approx(0.5)
    assert lift == pytest.approx(1.0)


def test_rule_metrics_cross_checks_lattice():
    rng = random.Random(31)
    transactions = []
    for _ in range(50):
        items = {i for i in range(1, 8) if rng.random() < 0.6}
        if rng.random() < 0.5:
            items.add(V)
        items.add(1)
        transactions.append(frozenset(items))
    itemsets = apriori(transactions, 0.1)
    rules = derive_rules(itemsets, 0.3, frozenset({V}), cap=100)
    assert rules
    n = len(transactions)
    for rule in rules:
        support, confidence, lift = rule_metrics(rule, transactions)
        assert support == pytest.approx(rule.support, abs=1e-12)
        assert confidence == pytest.approx(rule.confidence, abs=1e-12)
        assert lift == pytest.approx(rule.lift, abs=1e-12)
        assert rule.support <= rule.confidence
        assert not rule.antecedent & rule.consequent
        # lift above 1 exactly when the parts co-occur more than independence
        p_ante = sum(1 for t in transactions if rule.antecedent <= t) / n
        p_cons = sum(1 for t in transactions if rule.consequent <= t) / n
        if abs(rule.support - p_ante * p_cons) > 1e-9:
            assert (rule.lift > 1) == (rule.support > p_ante * p_cons)


def test_rule_metrics_zero_antecedent():
    with pytest.raises(ZeroAntecedentSupportError):
        rule_metrics(Rule(frozenset({9}), frozenset({V}), 0, 0, 0), TOY)


def test_rule_metrics_zero_consequent():
    transactions = [frozenset({A, 3}), frozenset({A, 4}), frozenset({B, 3})]
    with pytest.raises(DataError, match=r"consequent \[39\] occurs in no transaction"):
        rule_metrics(Rule(frozenset({A}), frozenset({V}), 0, 0, 0), transactions)


def test_dissolve_dataset_round_trip():
    schema = toy_schema(2)
    fm = FactorMap(
        entries=(
            FactorEntry(1, "f0", 1, "f0 yes"),
            FactorEntry(2, "f0", 0, "f0 no"),
            FactorEntry(3, "f1", 1, "f1 yes"),
            FactorEntry(4, "f1", 0, "f1 no"),
        ),
        victim_item=5,
    )
    ds = toy_dataset([[1, 0], [0, 1]], [1, 0], schema=schema)
    transactions = dissolve_dataset(ds, fm)
    assert transactions == [frozenset({1, 4, 5}), frozenset({2, 3})]


def test_planted_rule_recovery_through_mining():
    # Three factors jointly implying victimhood with probability 0.9 must
    # surface as a mined rule with confidence >= 0.8.
    from riskminer.generate import GenSpec, PlantedRule, generate_synthetic

    rule = PlantedRule(
        factors=(
            ("clicked-on-spam-email-links", 1),
            ("download-unauthorized-software", 1),
            ("used-virus-infected-pen-drive", 1),
        ),
        victim_prob=0.9,
        coverage=0.4,
    )
    ds = generate_synthetic(GenSpec(n_records=1500, class_balance=0.5, planted_rule=rule, seed=6))
    fm = default_factor_map()
    transactions = dissolve_dataset(ds, fm)
    itemsets = apriori(transactions, min_support=0.25)
    rules = derive_rules(itemsets, 0.8, frozenset({fm.victim_item}))
    wanted = frozenset(
        {factor_for(fm, f, v) for f, v in rule.factors}
    )
    match = [r for r in rules if r.antecedent == wanted]
    assert match and match[0].confidence >= 0.8


# -- the mine stage: factor tidsets from the code matrix ---------------------

def _outcome(run):
    """What *run* returns, or the type and message of the DataError it raises."""
    try:
        return run()
    except DataError as exc:
        return type(exc), str(exc)


@st.composite
def shipped_cases(draw):
    """A dataset of 0-60 rows over the shipped schema, at most six catalog
    features to mine (a lattice the reference can enumerate), and a support.
    A row's bits give its mined codes and then its label; every other column
    holds its first legal code."""
    schema = default_schema()
    features = draw(st.lists(st.sampled_from(default_factor_map().features), unique=True, max_size=6))
    columns = [schema.index_of(f) for f in features]
    rows = draw(st.lists(st.integers(0, 2 ** (len(features) + 1) - 1), max_size=60))
    records, labels = [], []
    for bits in rows:
        record = [f.values[0] for f in schema.features]
        for j, column in enumerate(columns):
            record[column] = bits >> j & 1
        records.append(record)
        labels.append(bits >> len(features))
    support = draw(st.floats(0.0, 1.0, exclude_min=True))
    return Dataset(schema, records, labels), features, support


@settings(max_examples=150, deadline=None)
@given(case=shipped_cases(), min_confidence=st.floats(0.0, 1.0), cap=st.integers(0, 50))
def test_the_stage_mines_what_apriori_mines_over_dissolved_transactions(case, min_confidence, cap):
    ds, features, support = case
    fm = default_factor_map().restrict(features)
    stage = _outcome(lambda: dataset_itemsets(ds, fm, support))
    reference = _outcome(lambda: apriori(dissolve_dataset(ds, fm), support))
    assert stage == reference
    if not ds:
        assert reference == (DataError, "no transactions to mine")
        assert _outcome(lambda: pipeline.mine(ds, features, support, min_confidence, cap)) == reference
        return
    rules, _, n_transactions = pipeline.mine(ds, features, support, min_confidence, cap)
    assert rules == derive_rules(reference, min_confidence, frozenset({fm.victim_item}), cap=cap)
    assert n_transactions == len(ds)


@st.composite
def mapped_cases(draw):
    """A dataset of 0-60 rows whose features take codes 0-2 and a factor map
    over some of them (and perhaps one the schema lacks), restricted again,
    that may list a second factor for a code; a code of 2 is unmapped."""
    schema = toy_schema(4, values=(0, 1, 2))
    entries, next_id = [], 1
    for feature in draw(st.lists(st.sampled_from(["f0", "f1", "f2", "f3", "ghost"]), unique=True)):
        values = draw(st.permutations([0, 1])) + draw(st.lists(st.integers(0, 1), max_size=1))
        for value in values:
            entries.append(FactorEntry(next_id, feature, value, f"{feature}={value}"))
            next_id += 1
    fm = FactorMap(entries=tuple(entries), victim_item=next_id)
    fm = fm.restrict(draw(st.lists(st.sampled_from(fm.features), unique=True)) if fm.features else [])
    base = draw(st.sampled_from([2, 3]))  # 3 lets unmapped codes in
    rows = draw(st.lists(st.integers(0, 2 * base**4 - 1), max_size=60))  # four codes, then the label
    records = [[bits // base**j % base for j in range(4)] for bits in rows]
    labels = [bits // base**4 for bits in rows]
    support = draw(st.floats(0.0, 1.0, exclude_min=True))
    return Dataset(schema, records, labels), fm, support


@settings(max_examples=200, deadline=None)
@given(case=mapped_cases())
def test_the_stage_maps_codes_and_fails_as_the_reference_does(case):
    ds, fm, support = case
    stage = _outcome(lambda: dataset_itemsets(ds, fm, support))
    assert stage == _outcome(lambda: apriori(dissolve_dataset(ds, fm), support))
    if "ghost" not in fm.features:  # the per-record oracle meets the cells in row order
        unmapped = _outcome(lambda: oracle.dissolve_dataset(ds, fm))
        if isinstance(unmapped, tuple) or isinstance(stage, tuple) and stage[0] is UnmappedFeatureError:
            assert stage == unmapped


def test_the_mine_stage_builds_no_per_record_transactions():
    ds = generate_synthetic(GenSpec(n_records=20_000, class_balance=0.5, seed=7))
    features = default_factor_map().features
    tracemalloc.start()
    try:
        _, _, n_transactions = pipeline.mine(ds, features, 0.25, 0.8, 10_000)
        _, peak = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
    assert n_transactions == 20_000
    assert peak <= 4_000_000, f"mine stage peaked at {peak / 1e6:.1f} MB"

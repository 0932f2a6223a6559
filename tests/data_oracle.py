"""Reference oracle for the data layer: validation, loading, the neighbour
search, the Apriori count and the synthetic generator.

These are the per-record implementations that the array-native ``Dataset``
and loader in ``riskminer.dataset``, the block neighbour search in
``riskminer.smote``, the tidset Apriori in ``riskminer.mining`` and the
once-planned generator in ``riskminer.generate`` replaced,
kept verbatim: ``TupleDataset`` checks every cell of its tuple records in
Python (it is the old ``Dataset``, renamed), ``load_dataset`` parses and
checks a CSV file cell by cell, ``knn_categorical`` rebuilds the code matrix
and a pool list for one seed, ``smote_n`` calls it once per distinct seed,
``apriori`` tests every candidate against every transaction, and
``dissolve_dataset`` dissolves one record at a time through ``dissolve``,
which looks up each factor with ``factor_for``. ``generate_synthetic``
recomputes, for every record, each planted factor's Bayes rates and other
codes and the rule's column positions.
The differential tests compare the library against them.
"""

from __future__ import annotations

import csv
import random
from dataclasses import dataclass
from itertools import combinations

import numpy as np

from riskminer.dataset import Dataset
from riskminer.errors import (
    ClassTooSmallError,
    ConfigError,
    DataError,
    HeaderMismatchError,
    IllegalValueError,
    MissingColumnError,
    PoolTooSmallError,
    RaggedRowError,
    TargetBelowCurrentError,
    UnmappedFeatureError,
)
from riskminer.generate import GenSpec, _draw, _marginal_dist
from riskminer.mining import FactorMap
from riskminer.schema import Schema


@dataclass(frozen=True)
class TupleDataset:
    """Validated, immutable collection of records and labels.

    Safe for concurrent reads; all mutation happens before construction.
    """

    schema: Schema
    records: tuple[tuple[int, ...], ...]
    labels: tuple[int, ...]

    def __post_init__(self):
        nfeat = len(self.schema.features)
        if len(self.records) != len(self.labels):
            raise DataError(
                f"{len(self.records)} records but {len(self.labels)} labels"
            )
        for r, (rec, lab) in enumerate(zip(self.records, self.labels), start=1):
            if len(rec) != nfeat:
                raise RaggedRowError(r, nfeat, len(rec))
            for spec, value in zip(self.schema.features, rec):
                if value not in spec.values:
                    raise IllegalValueError(r, spec.name, value)
            if lab not in (0, 1):
                raise IllegalValueError(r, self.schema.goal_name, lab)


def load_dataset(path, schema: Schema) -> TupleDataset:
    """Load and validate a CSV file against *schema*.

    The header must be the schema's feature names plus the goal column,
    exactly and in order. Cells must be integers within each feature's
    legal codes. Row order is preserved.
    """
    expected = list(schema.feature_names) + [schema.goal_name]
    with open(path, newline="", encoding="utf-8") as fh:
        reader = csv.reader(fh)
        try:
            header = next(reader)
        except StopIteration:
            raise MissingColumnError(expected[0]) from None
        for name in expected:
            if name not in header:
                raise MissingColumnError(name)
        if header != expected:
            raise HeaderMismatchError(
                f"header must be exactly {expected!r} in order, got {header!r}"
            )
        records: list[tuple[int, ...]] = []
        labels: list[int] = []
        for r, row in enumerate(reader, start=1):
            if len(row) != len(expected):
                raise RaggedRowError(r, len(expected), len(row))
            values = []
            for name, cell in zip(expected, row):
                try:
                    values.append(int(cell))
                except ValueError:
                    raise IllegalValueError(r, name, cell) from None
            for spec, value in zip(schema.features, values):
                if value not in spec.values:
                    raise IllegalValueError(r, spec.name, value)
            if values[-1] not in (0, 1):
                raise IllegalValueError(r, schema.goal_name, values[-1])
            records.append(tuple(values[:-1]))
            labels.append(values[-1])
    return TupleDataset(schema=schema, records=tuple(records), labels=tuple(labels))


def knn_categorical(ds: Dataset, index: int, k: int, same_class_only: bool = True) -> list[int]:
    """Positions of the k records closest to ``ds.records[index]`` by Hamming
    distance, excluding *index*; ties break toward the lower position."""
    matrix = np.asarray(ds.records, dtype=np.int16)
    query = matrix[index]
    if same_class_only:
        pool = [i for i, lab in enumerate(ds.labels) if lab == ds.labels[index] and i != index]
    else:
        pool = [i for i in range(len(ds)) if i != index]
    if len(pool) < k:
        raise PoolTooSmallError(k, len(pool))
    dists = (matrix[pool] != query).sum(axis=1)
    order = np.argsort(dists, kind="stable")  # pool is ascending, so ties stay ascending
    return [pool[i] for i in order[:k]]


def smote_n(ds: Dataset, targets: dict, k: int = 5, seed: int = 0) -> Dataset:
    """Return *ds* with synthetic records appended until each class reaches
    its count in *targets*. Original records come first, untouched."""
    counts = ds.class_counts()
    grow: dict[int, int] = {}
    for label, target in sorted(targets.items()):
        current = counts.get(label, 0)
        if target < current:
            raise TargetBelowCurrentError(label, target, current)
        if target > current:
            if current < k + 1:
                raise ClassTooSmallError(label, current, k)
            grow[label] = target - current

    rng = random.Random(seed)
    positions = {label: [i for i, lab in enumerate(ds.labels) if lab == label] for label in grow}
    neighbour_cache: dict[int, list[int]] = {}

    new_records: list[tuple[int, ...]] = []
    new_labels: list[int] = []
    for label in sorted(grow):
        members = positions[label]
        for _ in range(grow[label]):
            seed_pos = members[rng.randrange(len(members))]
            if seed_pos not in neighbour_cache:
                neighbour_cache[seed_pos] = knn_categorical(ds, seed_pos, k, same_class_only=True)
            donor_pos = neighbour_cache[seed_pos][rng.randrange(k)]
            seed_rec = ds.records[seed_pos]
            donor_rec = ds.records[donor_pos]
            synthetic = tuple(
                s if rng.random() < 0.5 else d for s, d in zip(seed_rec, donor_rec)
            )
            new_records.append(synthetic)
            new_labels.append(label)

    return Dataset(
        schema=ds.schema,
        records=ds.records + tuple(new_records),
        labels=ds.labels + tuple(new_labels),
    )


def factor_for(fm: FactorMap, feature: str, value: int) -> int:
    for e in fm.entries:
        if e.feature == feature and e.value == value:
            return e.factor_id
    raise UnmappedFeatureError(feature)


def dissolve(record: dict, label: int, fm: FactorMap) -> frozenset:
    """Transaction for one record: one factor per mapped feature, plus the
    victim item when label == 1. *record* maps feature name to code."""
    items = set()
    for feature in fm.features:
        if feature not in record:
            raise UnmappedFeatureError(feature)
        items.add(factor_for(fm, feature, record[feature]))
    if label == 1:
        items.add(fm.victim_item)
    return frozenset(items)


def dissolve_dataset(ds: Dataset, fm: FactorMap) -> list[frozenset]:
    idx = {feature: ds.schema.index_of(feature) for feature in fm.features}
    out = []
    for rec, lab in zip(ds.records, ds.labels):
        row = {feature: rec[j] for feature, j in idx.items()}
        out.append(dissolve(row, lab, fm))
    return out


def apriori(transactions, min_support: float) -> dict[frozenset, float]:
    """All itemsets with support >= min_support, found level-wise.

    Support is the fraction of transactions containing the itemset. Candidate
    (k)-itemsets join frequent (k-1)-itemsets sharing a (k-2)-prefix and are
    pruned unless every (k-1)-subset is frequent.
    """
    if not transactions:
        raise ConfigError("no transactions to mine")
    if not 0.0 < min_support <= 1.0:
        raise ConfigError("min_support must lie in (0, 1]")
    n = len(transactions)
    counts: dict[frozenset, int] = {}
    for t in transactions:
        for item in t:
            key = frozenset((item,))
            counts[key] = counts.get(key, 0) + 1
    frequent = {s: c / n for s, c in counts.items() if c / n >= min_support}
    result = dict(frequent)
    current = sorted(tuple(sorted(s)) for s in frequent)
    k = 2
    while current:
        survivors = set(map(frozenset, current))
        candidates = []
        for a, b in combinations(sorted(current), 2):
            if a[: k - 2] != b[: k - 2]:
                continue
            joined = tuple(sorted(set(a) | set(b)))
            if len(joined) != k:
                continue
            if all(frozenset(sub) in survivors for sub in combinations(joined, k - 1)):
                candidates.append(joined)
        if not candidates:
            break
        tally = {c: 0 for c in candidates}
        cand_sets = {c: frozenset(c) for c in candidates}
        for t in transactions:
            for c in candidates:
                if cand_sets[c] <= t:
                    tally[c] += 1
        current = []
        for c, hit in tally.items():
            support = hit / n
            if support >= min_support:
                result[cand_sets[c]] = support
                current.append(c)
        k += 1
    return result


def generate_synthetic(spec: GenSpec) -> Dataset:
    """Generate ``spec.n_records`` schema-conforming records, seeded."""
    rng = random.Random(spec.seed)
    schema = spec.schema
    b = spec.class_balance

    factor_by_feat = {pf.feature: pf for pf in spec.planted_factors}
    rule = spec.planted_rule
    rule_values = dict(rule.factors) if rule else {}
    if rule:
        off_balance = (b - rule.victim_prob * rule.coverage) / (1.0 - rule.coverage)
    else:
        off_balance = b

    noise_dists = {
        f.name: _marginal_dist(f.values, spec.noise_marginals.get(f.name))
        for f in schema.features
    }

    records: list[tuple[int, ...]] = []
    labels: list[int] = []
    for _ in range(spec.n_records):
        rule_active = rule is not None and rng.random() < rule.coverage
        if rule_active:
            label = 1 if rng.random() < rule.victim_prob else 0
        else:
            label = 1 if rng.random() < off_balance else 0

        row: list[int] = []
        for feat in schema.features:
            if feat.name in rule_values:
                row.append(-1)  # filled below, jointly
                continue
            pf = factor_by_feat.get(feat.name)
            if pf is None:
                row.append(_draw(rng, noise_dists[feat.name]))
                continue
            # P(value | label) from Bayes so that P(victim | value) == victim_prob.
            if label == 1:
                p_hit = pf.victim_prob * pf.marginal / b
            else:
                p_hit = (1 - pf.victim_prob) * pf.marginal / (1 - b)
            if rng.random() < p_hit:
                row.append(pf.value)
            else:
                others = [v for v in feat.values if v != pf.value]
                row.append(others[rng.randrange(len(others))])

        if rule:
            positions = [schema.index_of(f) for f, _ in rule.factors]
            if rule_active:
                for pos, (_, v) in zip(positions, rule.factors):
                    row[pos] = v
            else:
                # Draw the rule features from their marginals, excluding the
                # exact planted combination so the rule's confidence is clean.
                while True:
                    drawn = [_draw(rng, noise_dists[f]) for f, _ in rule.factors]
                    if any(d != v for d, (_, v) in zip(drawn, rule.factors)):
                        break
                for pos, d in zip(positions, drawn):
                    row[pos] = d

        records.append(tuple(row))
        labels.append(label)

    return Dataset(schema=schema, records=tuple(records), labels=tuple(labels))

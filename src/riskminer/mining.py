"""Association-rule mining over dissolved risk factors.

Each binary risk feature dissolves into a yes-factor and a no-factor; a
record holds one factor per mapped feature plus the victim item when its
label is 1. Apriori enumerates the frequent itemsets level-wise, and rules
are read off the lattice for a fixed consequent (normally the victim item),
so a rule's confidence is exactly P(consequent | antecedent) over the
records.

The lattice counts on vertical tidsets, as Eclat does (Zaki 2000): every
frequent itemset carries a Python ``int`` bitset of the record positions
that contain it, and a candidate's support count is the ``bit_count`` of the
AND of its two parents' tidsets, so no candidate is tested against a record.
Candidates join only inside each run of equal (k-2)-prefixes of the sorted
level, which yields the same candidates in the same order as pairing every
two itemsets of the level.

``dataset_itemsets``, which the ``mine`` stage runs, reads each factor's
tidset straight from the dataset's code matrix and never builds per-record
transactions. ``dissolve_dataset`` and ``apriori`` (transactions in, itemsets
out) stay the library API and the reference that tests hold it to; both
paths share the code-to-factor mapping and the lattice.
"""

from __future__ import annotations

from dataclasses import dataclass
from itertools import combinations, groupby

import numpy as np

from .dataset import Dataset
from .errors import ConfigError, DataError, UnmappedFeatureError, ZeroAntecedentSupportError
from .schema import FactorEntry, FactorMap, default_factor_map  # the catalog, also importable from here


def _factor_columns(ds: Dataset, fm: FactorMap) -> list[tuple[np.ndarray, dict[int, int]]]:
    """Each feature that *fm* maps, in feature order: its code column in
    *ds* and its code -> factor id map, where the first catalog entry of a
    code wins. A mapped feature missing from the schema raises
    UnmappedFeatureError; so does an unmapped code, naming the feature of
    the first unmapped cell in row order."""
    factors: dict[str, dict[int, int]] = {}  # features in fm.features order
    for e in fm.entries:
        factors.setdefault(e.feature, {}).setdefault(e.value, e.factor_id)
    columns = []
    first_unmapped = (len(ds), None)  # (row, feature)
    for feature, ids in factors.items():
        if feature not in ds.schema:
            raise UnmappedFeatureError(feature)
        column = ds.codes[:, ds.schema.index_of(feature)]
        unmapped = ~np.isin(column, list(ids))
        row = int(unmapped.argmax()) if unmapped.any() else len(ds)
        if row < first_unmapped[0]:
            first_unmapped = (row, feature)
        columns.append((column, ids))
    if first_unmapped[1] is not None:
        raise UnmappedFeatureError(first_unmapped[1])
    return columns


def dissolve_dataset(ds: Dataset, fm: FactorMap) -> list[frozenset]:
    """Transactions for every record: each holds the factor of every mapped
    feature's code, in feature order, then the victim item when the record's
    label is 1. A feature or code that *fm* maps to no factor raises
    UnmappedFeatureError."""
    columns = _factor_columns(ds, fm)
    items = np.empty((len(ds), len(columns)), dtype=np.int64)
    for j, (column, ids) in enumerate(columns):
        for code, factor_id in ids.items():
            items[column == code, j] = factor_id
    rows = items.tolist()
    for i in np.flatnonzero(ds.y == 1).tolist():
        rows[i].append(fm.victim_item)
    # a frozenset copied from a set can iterate in another order than one
    # built from a list, and Apriori's singleton order follows iteration
    return [frozenset(set(row)) for row in rows]


def _tidset(flags: np.ndarray) -> int:
    """The bitset of the True positions of *flags*: bit i is record i."""
    return int.from_bytes(np.packbits(flags, bitorder="little").tobytes(), "little")


def check_support(min_support: float) -> None:
    if not 0.0 < min_support <= 1.0:
        raise ConfigError(f"min_support must lie in (0, 1], got {min_support}")


def apriori(transactions, min_support: float) -> dict[frozenset, float]:
    """All itemsets with support >= min_support, found level-wise.

    Support is the fraction of transactions containing the itemset. Candidate
    (k)-itemsets join frequent (k-1)-itemsets sharing a (k-2)-prefix and are
    pruned unless every (k-1)-subset is frequent. Singletons come first in
    the order their items are first seen, then each level in sorted order.
    """
    n = len(transactions)
    tidlists: dict = {}  # item -> its transaction positions, items in first-seen order
    for pos, t in enumerate(transactions):
        for item in t:
            tidlists.setdefault(item, []).append(pos)
    everyone = np.arange(n)
    singletons = {item: _tidset(np.isin(everyone, positions)) for item, positions in tidlists.items()}
    return _lattice(singletons, n, min_support)


def dataset_itemsets(ds: Dataset, fm: FactorMap, min_support: float) -> dict[frozenset, float]:
    """``apriori(dissolve_dataset(ds, fm), min_support)``, read from the code
    matrix: one tidset per factor (features in catalog order) and one for the
    victim item, and no transactions. The itemsets and supports are the
    same; only the singletons may come out in another order."""
    tidsets = {}
    for column, ids in _factor_columns(ds, fm):
        for code, factor_id in ids.items():
            tidsets[factor_id] = _tidset(column == code)
    tidsets[fm.victim_item] = _tidset(ds.y == 1)
    return _lattice(tidsets, len(ds), min_support)


def _lattice(singletons: dict, n: int, min_support: float) -> dict[frozenset, float]:
    """The frequent itemsets over *n* records, given every item's tidset:
    the frequent singletons in the order of *singletons*, then each level in
    sorted order."""
    if n == 0:
        raise DataError("no transactions to mine")
    check_support(min_support)
    result = {}
    level = {}  # sorted itemset tuple -> tidset
    for item, tids in singletons.items():
        support = tids.bit_count() / n
        if support >= min_support:
            result[frozenset((item,))] = support
            level[(item,)] = tids
    k = 2
    while level:
        frontier = {}
        for _, run in groupby(sorted(level), key=lambda s: s[: k - 2]):
            run = list(run)
            for i, a in enumerate(run):
                for b in run[i + 1:]:
                    joined = a + b[-1:]
                    if all(sub in level for sub in combinations(joined, k - 1)):
                        tids = level[a] & level[b]
                        support = tids.bit_count() / n
                        if support >= min_support:
                            result[frozenset(joined)] = support
                            frontier[joined] = tids
        level = frontier
        k += 1
    return result


@dataclass(frozen=True)
class Rule:
    antecedent: frozenset
    consequent: frozenset
    support: float
    confidence: float
    lift: float


def check_rule_limits(min_confidence: float, cap: int) -> None:
    if not 0.0 <= min_confidence <= 1.0:
        raise ConfigError(f"min_confidence must lie in [0, 1], got {min_confidence}")
    if cap < 0:
        raise ConfigError(f"max_rules must be >= 0, got {cap}")


def derive_rules(
    itemsets: dict[frozenset, float],
    min_confidence: float,
    consequent: frozenset,
    cap: int = 10_000,
) -> list[Rule]:
    """Rules (S \\ consequent -> consequent) for every frequent S containing
    the consequent, filtered by confidence, sorted by confidence then support
    descending then antecedent, and truncated to *cap*."""
    check_rule_limits(min_confidence, cap)
    consequent = frozenset(consequent)
    if consequent not in itemsets:
        return []
    cons_support = itemsets[consequent]
    rules = []
    for s, support in itemsets.items():
        if s == consequent or not consequent <= s:
            continue
        antecedent = s - consequent
        conf = support / itemsets[antecedent]
        if conf >= min_confidence:
            rules.append(
                Rule(
                    antecedent=antecedent,
                    consequent=consequent,
                    support=support,
                    confidence=conf,
                    lift=conf / cons_support,
                )
            )
    rules.sort(key=lambda r: (-r.confidence, -r.support, tuple(sorted(r.antecedent))))
    return rules[:cap]


def rule_metrics(rule: Rule, transactions) -> tuple[float, float, float]:
    """Recompute (support, confidence, lift) directly from the transactions;
    serves as the cross-check against lattice-derived values."""
    n = len(transactions)
    union = rule.antecedent | rule.consequent
    n_union = sum(1 for t in transactions if union <= t)
    n_ante = sum(1 for t in transactions if rule.antecedent <= t)
    n_cons = sum(1 for t in transactions if rule.consequent <= t)
    if n_ante == 0:
        raise ZeroAntecedentSupportError()
    if n_cons == 0:
        raise DataError(f"rule consequent {sorted(rule.consequent)} occurs in no transaction")
    support = n_union / n
    confidence = support / (n_ante / n)
    lift = confidence / (n_cons / n)
    return support, confidence, lift

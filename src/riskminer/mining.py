"""Association-rule mining over dissolved risk factors.

Each binary risk feature dissolves into a yes-factor and a no-factor; a
record becomes a transaction holding one factor per mapped feature plus the
victim item when its label is 1. Apriori enumerates the frequent itemsets
level-wise, and rules are read off the lattice for a fixed consequent
(normally the victim item), so a rule's confidence is exactly
P(consequent | antecedent) over the transaction list.

Apriori counts on vertical tidsets, as Eclat does (Zaki 2000): every
frequent itemset carries a Python ``int`` bitset of the transaction
positions that contain it, and a candidate's support count is the
``bit_count`` of the AND of its two parents' tidsets, so no candidate is
tested against the transaction list. Candidates join only inside each run of
equal (k-2)-prefixes of the sorted level, which yields the same candidates in
the same order as pairing every two itemsets of the level.
"""

from __future__ import annotations

from dataclasses import dataclass
from importlib import resources
from itertools import combinations, groupby

import numpy as np

from .dataset import Dataset
from .errors import ConfigError, UnmappedFeatureError, ZeroAntecedentSupportError
from .files import read_json


@dataclass(frozen=True)
class FactorEntry:
    factor_id: int
    feature: str
    value: int
    description: str


@dataclass(frozen=True)
class FactorMap:
    entries: tuple[FactorEntry, ...]
    victim_item: int = 39

    def __post_init__(self):
        ids = [e.factor_id for e in self.entries]
        if len(set(ids)) != len(ids):
            raise ConfigError("factor ids must be unique")
        if self.victim_item in ids:
            raise ConfigError("victim item id collides with a factor id")
        per_feature: dict[str, set[int]] = {}
        for e in self.entries:
            per_feature.setdefault(e.feature, set()).add(e.value)
        for feature, values in per_feature.items():
            if values != {0, 1}:
                raise ConfigError(f"mapped feature {feature!r} must dissolve into exactly the 0 and 1 factors")

    @property
    def features(self) -> tuple[str, ...]:
        return tuple(dict.fromkeys(e.feature for e in self.entries))

    def restrict(self, features) -> "FactorMap":
        """Keep only the entries of *features*, preserving the original ids."""
        wanted = set(features)
        return FactorMap(
            entries=tuple(e for e in self.entries if e.feature in wanted),
            victim_item=self.victim_item,
        )


def default_factor_map() -> FactorMap:
    """The shipped catalog: 19 risk features dissolved into factors 1..38."""
    doc = read_json(resources.files("riskminer.resources") / "factors.json", "factor catalog")
    return FactorMap(
        entries=tuple(
            FactorEntry(e["id"], e["feature"], e["value"], e["description"]) for e in doc["factors"]
        ),
        victim_item=doc["victim_item"],
    )


def dissolve_dataset(ds: Dataset, fm: FactorMap) -> list[frozenset]:
    """Transactions for every record: each holds the factor of every mapped
    feature's code, in feature order, then the victim item when the record's
    label is 1. A feature or code that *fm* maps to no factor raises
    UnmappedFeatureError."""
    factors: dict[str, dict[int, int]] = {}  # features in fm.features order
    for e in fm.entries:
        factors.setdefault(e.feature, {}).setdefault(e.value, e.factor_id)  # the first entry wins
    items = np.empty((len(ds), len(factors)), dtype=np.int64)
    mapped = np.ones(items.shape, dtype=bool)
    for j, (feature, ids) in enumerate(factors.items()):
        if feature not in ds.schema:
            raise UnmappedFeatureError(feature)
        column = ds.codes[:, ds.schema.index_of(feature)]
        mapped[:, j] = np.isin(column, list(ids))
        for code, factor_id in ids.items():
            items[column == code, j] = factor_id
    if not mapped.all():
        raise UnmappedFeatureError(list(factors)[np.argmin(mapped, axis=None) % len(factors)])
    rows = items.tolist()
    for i in np.flatnonzero(ds.y == 1).tolist():
        rows[i].append(fm.victim_item)
    # a frozenset copied from a set can iterate in another order than one
    # built from a list, and Apriori's singleton order follows iteration
    return [frozenset(set(row)) for row in rows]


def _tidset(positions: list[int], n: int) -> int:
    flags = np.zeros(n, dtype=bool)
    flags[positions] = True
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
    if not transactions:
        raise ConfigError("no transactions to mine")
    check_support(min_support)
    n = len(transactions)
    tidlists: dict = {}  # item -> its transaction positions, items in first-seen order
    for pos, t in enumerate(transactions):
        for item in t:
            tidlists.setdefault(item, []).append(pos)
    result = {}
    level = {}  # sorted itemset tuple -> tidset
    for item, positions in tidlists.items():
        support = len(positions) / n
        if support >= min_support:
            result[frozenset((item,))] = support
            level[(item,)] = _tidset(positions, n)
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
    support = n_union / n
    confidence = support / (n_ante / n)
    lift = confidence / (n_cons / n)
    return support, confidence, lift

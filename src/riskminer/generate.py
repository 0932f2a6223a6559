"""Planted-signal synthetic datasets.

The survey data behind the shipped schema is not distributable, so desk-scale
verification runs on generated datasets whose feature/label dependencies are
known by construction: individual features can be planted with a chosen
P(victim | feature=value), and a joint factor combination can be planted so a
specific association rule exists with a chosen confidence and coverage.
Features not mentioned anywhere are noise, drawn independently of the label.
The records draw from one ``random.Random(seed)`` in one fixed order, so a
seed's data does not change between versions; ``tests/data_oracle.py`` keeps
the per-record generator that this one replaced as the reference.
"""

from __future__ import annotations

import math
import random
from dataclasses import dataclass, field

import numpy as np

from .dataset import Dataset, code_type
from .errors import ConfigError
from .schema import Schema, default_schema


@dataclass(frozen=True)
class PlantedFactor:
    """Ties one feature value to the label: P(victim | feature == value)."""

    feature: str
    value: int
    victim_prob: float
    marginal: float = 0.5  # P(feature == value) in the population


@dataclass(frozen=True)
class PlantedRule:
    """A joint combination of feature values implying victimhood.

    Records carrying the full combination appear with probability *coverage*
    and are victims with probability *victim_prob*; no other record carries
    the full combination, so the mined rule's confidence equals victim_prob.
    """

    factors: tuple[tuple[str, int], ...]
    victim_prob: float
    coverage: float


@dataclass(frozen=True)
class GenSpec:
    n_records: int
    class_balance: float = 0.5
    planted_factors: tuple[PlantedFactor, ...] = ()
    planted_rule: PlantedRule | None = None
    noise_marginals: dict = field(default_factory=dict)  # feature -> {value: prob}
    seed: int = 0
    schema: Schema = field(default_factory=default_schema)

    def __post_init__(self):
        if self.n_records < 1:
            raise ConfigError("n_records must be positive")
        if not 0.0 < self.class_balance < 1.0:
            raise ConfigError("class_balance must lie in (0, 1)")
        rule_feats = set()
        if self.planted_rule is not None:
            rule = self.planted_rule
            if not 0.0 < rule.coverage < 1.0:
                raise ConfigError("rule coverage must lie in (0, 1)")
            if not 0.0 <= rule.victim_prob <= 1.0:
                raise ConfigError("rule victim_prob must lie in [0, 1]")
            rule_feats = {feat for feat, _ in rule.factors}
            if not rule.factors or len(rule_feats) < len(rule.factors):
                raise ConfigError("a planted rule needs one or more factors, each on its own feature")
            for feat, value in rule.factors:
                _check_value(self.schema, feat, value)
            residual = self.class_balance - rule.victim_prob * rule.coverage
            if not 0.0 <= residual / (1.0 - rule.coverage) <= 1.0:
                raise ConfigError("rule coverage/probability incompatible with class_balance")
        for pf in self.planted_factors:
            _check_value(self.schema, pf.feature, pf.value)
            if len(self.schema.feature(pf.feature).values) < 2:  # every record carries the one code
                raise ConfigError(f"{pf.feature!r} has one code, so a factor planted on it plants nothing")
            if not 0.0 <= pf.victim_prob <= 1.0:
                raise ConfigError(f"victim_prob for {pf.feature!r} must lie in [0, 1]")
            if not 0.0 < pf.marginal <= 1.0:
                raise ConfigError(f"marginal for {pf.feature!r} must lie in (0, 1]")
            if pf.feature in rule_feats:
                raise ConfigError(f"{pf.feature!r} is planted both as a factor and in the rule")
            # Bayes feasibility of P(value | class) for both classes.
            if pf.victim_prob * pf.marginal > self.class_balance + 1e-12:
                raise ConfigError(f"planted factor {pf.feature!r} incompatible with class_balance")
            if (1 - pf.victim_prob) * pf.marginal > (1 - self.class_balance) + 1e-12:
                raise ConfigError(f"planted factor {pf.feature!r} incompatible with class_balance")
        for feature, dist in self.noise_marginals.items():
            for value in dist:
                _check_value(self.schema, feature, value)
            if dist and not (min(dist.values()) >= 0 and 0 < sum(dist.values()) < math.inf):
                raise ConfigError(f"noise probabilities for {feature!r} must be >= 0, with a positive finite sum")
        if self.planted_rule:  # a record off the rule redraws its features until it misses the combination
            noise = {f: dict(_marginal_dist(self.schema.feature(f).values, self.noise_marginals.get(f)))
                     for f in rule_feats}
            # a record off the rule takes 1 / (1 - hit) draws on average: at most 1,000
            hit = math.prod(noise[feat].get(value, 0.0) for feat, value in self.planted_rule.factors)
            if hit > 0.999:
                raise ConfigError(f"the planted rule's combination has noise probability {hit:.7g} > 0.999")


def _check_value(schema: Schema, feature: str, value: int) -> None:
    if feature not in schema:
        raise ConfigError(f"feature {feature!r} not in schema")
    if value not in schema.feature(feature).values:
        raise ConfigError(f"value {value} illegal for feature {feature!r}")


def _draw(rng: random.Random, dist: list[tuple[int, float]]) -> int:
    u = rng.random()
    acc = 0.0
    for value, p in dist:
        acc += p
        if u < acc:
            return value
    return dist[-1][0]


def _marginal_dist(spec_values, marginals: dict | None) -> list[tuple[int, float]]:
    if marginals:
        total = sum(marginals.values())
        return [(int(v), marginals[v] / total) for v in sorted(marginals, key=int)]
    p = 1.0 / len(spec_values)
    return [(v, p) for v in spec_values]


def generate_synthetic(spec: GenSpec) -> Dataset:
    """Generate ``spec.n_records`` schema-conforming records, seeded."""
    rng = random.Random(spec.seed)
    schema, b, rule = spec.schema, spec.class_balance, spec.planted_rule
    target = dict(rule.factors) if rule else {}
    noise = {f.name: _marginal_dist(f.values, spec.noise_marginals.get(f.name)) for f in schema.features}
    # P(victim) off the rule, then on it
    rates = ((b - rule.victim_prob * rule.coverage) / (1.0 - rule.coverage), rule.victim_prob) if rule else (b,)
    # per column off the rule, in schema order: (noise distribution, ...) or (None, code, P(code | label), others)
    plan = {name: (dist, None, None, None) for name, dist in noise.items() if name not in target}
    for pf in spec.planted_factors:
        # P(value | label) from Bayes so that P(victim | value) == victim_prob.
        hits = ((1 - pf.victim_prob) * pf.marginal / (1 - b), pf.victim_prob * pf.marginal / b)
        plan[pf.feature] = (None, pf.value, hits, [v for v in schema.feature(pf.feature).values if v != pf.value])
    combo_on, rule_dists = list(target.values()), [noise[f] for f in target]
    rows, labels = [], []
    for _ in range(spec.n_records):
        on_rule = rule is not None and rng.random() < rule.coverage
        label = int(rng.random() < rates[on_rule])
        row = []
        for dist, value, hits, others in plan.values():
            if dist is not None:
                row.append(_draw(rng, dist))
            else:
                row.append(value if rng.random() < hits[label] else others[rng.randrange(len(others))])
        # Off the rule, redraw its features until they miss the combination, so the rule's confidence is clean.
        combo = combo_on
        while rule and not on_rule and combo == combo_on:
            combo = [_draw(rng, dist) for dist in rule_dists]
        rows.append(row + combo)
        labels.append(label)
    codes = np.empty((spec.n_records, len(schema.features)), dtype=code_type(schema))
    codes[:, [schema.index_of(f) for f in [*plan, *target]]] = rows  # each drawn code to its schema column
    return Dataset(schema=schema, records=codes, labels=labels)

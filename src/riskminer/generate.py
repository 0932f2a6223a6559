"""Planted-signal synthetic datasets.

The survey data behind the shipped schema is not distributable, so desk-scale
verification runs on generated datasets whose feature/label dependencies are
known by construction: individual features can be planted with a chosen
P(victim | feature=value), and a joint factor combination can be planted so a
specific association rule exists with a chosen confidence and coverage.
Features not mentioned anywhere are noise, drawn independently of the label.
"""

from __future__ import annotations

import math
import random
from dataclasses import dataclass, field

from .dataset import Dataset
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
            if dist and not (min(dist.values()) >= 0 and sum(dist.values()) > 0):
                raise ConfigError(f"noise probabilities for {feature!r} must be >= 0 with a positive sum")
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

"""The benchmark's workloads: how each makes its inputs from a seed, which
riskminer CLI commands one run executes, and how its outputs are checked.

A workload sees the program only through the files it writes (a pipeline
config or a generated CSV) and the CLI. The seed becomes the generator seed;
seed 7 reproduces the acceptance config exactly. Everything else in a config
is fixed, so the work a run does changes with the seed only as much as the
generated data does.
"""

from __future__ import annotations

import csv
import json
import os
from dataclasses import dataclass
from typing import Callable

DEFAULT_SEED = 7  # the acceptance config's generator seed

# The acceptance config (tests/test_acceptance.py, criterion 8).
ACCEPTANCE_FACTORS = (
    "weak-password",
    "compulsive-buyer",
    "shared-email-access",
    "sharing-private-information-on-the-internet",
    "installed-malicious-software",
)
ACCEPTANCE_RULE = {
    "factors": [
        ["clicked-on-spam-email-links", 1],
        ["download-unauthorized-software", 1],
        ["used-virus-infected-pen-drive", 1],
    ],
    "victim_prob": 0.9,
    "coverage": 0.35,
}
RULE_IDS = [11, 19, 31]  # the planted combination's yes-factors
VICTIM_ITEM = 39


ACCEPTANCE_RECORDS = 3286


def acceptance_config(seed: int) -> dict:
    return {
        "seed": 42,
        "generator": {
            "n_records": ACCEPTANCE_RECORDS,
            "class_balance": 0.5,
            "seed": seed,
            "planted_factors": [
                {"feature": f, "value": 1, "victim_prob": 0.85} for f in ACCEPTANCE_FACTORS
            ],
            "planted_rule": ACCEPTANCE_RULE,
        },
    }


# eliminate: the paper-shaped run of tests/test_report_shape.py (23 planted
# features at victim_prob 0.62, 700 rows) cut to one backward step with all
# six learners over 12 strongly planted survivors, so that a run can be
# repeated. The small alpha keeps noise features out of the survivors.
ELIMINATE_RECORDS = 300
ELIMINATE_FEATURES = (
    "weak-password",
    "social-media-user",
    "disclose-sentiment-on-social-media",
    "victimized-by-blackmailing",
    "maintained-privacy-on-social-media",
    "sharing-private-information-on-the-internet",
    "receive-phishing-email",
    "shared-email-access",
    "permitted-ingress-in-email",
    "clicked-on-spam-email-links",
    "online-products-purchaser",
    "lost-money-by-purchasing-online-commodities",
)


def eliminate_config(seed: int) -> dict:
    return {
        "seed": 5,
        "alpha": 0.001,
        "generator": {
            "n_records": ELIMINATE_RECORDS,
            "class_balance": 0.5,
            "seed": seed,
            "planted_factors": [{"feature": f, "value": 1, "victim_prob": 0.7} for f in ELIMINATE_FEATURES],
        },
        "smote": {"balance": False},
        # LR's iteration count swings from 90 to the 1000 cap with the data at
        # this size; a lower cap makes every LR fit do the same work
        "classifier_params": {"LR": {"max_iter": 150}},
        "elimination": {"min_size": len(ELIMINATE_FEATURES) - 1},
    }


# augment-mine grows its CSV to a fixed total, so the rows SMOTE adds do not
# change with the class counts the seed happens to draw.
AUGMENT_RECORDS = 2500
AUGMENT_TOTAL = 3700


def augment_generator(seed: int) -> dict:
    return {
        "generator": {
            "n_records": AUGMENT_RECORDS,
            "class_balance": 0.35,
            "seed": seed,
            "planted_factors": [
                {"feature": f, "value": 1, "victim_prob": 0.6} for f in ACCEPTANCE_FACTORS
            ],
            "planted_rule": ACCEPTANCE_RULE,
        },
    }


# augment-mine's second input: the acceptance generator at fewer rows, mined
# over the full 19-feature catalog at a lower support, for a lattice about
# three times as large and a few levels deeper than the augmented data's. The
# planted factors put clusters of itemset supports near 0.13 and 0.15, where
# which itemsets pass changes with the seed's data and the lattice size with
# it; 0.17 sits in a gap between clusters, so the work hardly depends on the
# seed.
MINE_DEEP_RECORDS = 1800
MINE_DEEP_SUPPORT = 0.17


def mine_deep_generator(seed: int) -> dict:
    doc = acceptance_config(seed)
    doc["generator"]["n_records"] = MINE_DEEP_RECORDS
    return doc


# -- output checks -------------------------------------------------------------
# Each check returns a list of failure messages (empty when the outputs are
# right). ``rm`` is the imported riskminer package.

def _read_rules(path: str) -> list[dict]:
    with open(path, newline="", encoding="utf-8") as fh:
        return [
            {
                "antecedent": [int(i) for i in row["antecedent_ids"].split()],
                "consequent": [int(i) for i in row["consequent"].split()],
                "support": float(row["support"]),
                "confidence": float(row["confidence"]),
                "lift": float(row["lift"]),
            }
            for row in csv.DictReader(fh)
        ]


def _planted_rule_problems(rules: list[dict], what: str) -> list[str]:
    planted = [r for r in rules if sorted(r["antecedent"]) == RULE_IDS and r["consequent"] == [VICTIM_ITEM]]
    if not planted:
        return [f"{what}: planted rule {RULE_IDS} -> {VICTIM_ITEM} not mined"]
    rule = planted[0]
    problems = []
    if rule["confidence"] < 0.8:
        problems.append(f"{what}: planted rule confidence {rule['confidence']} < 0.8")
    if rule["support"] < 0.25:
        problems.append(f"{what}: planted rule support {rule['support']} < 0.25")
    return problems


def _report(out: str) -> dict:
    with open(os.path.join(out, "report", "report.json"), encoding="utf-8") as fh:
        return json.load(fh)


def check_acceptance(rm, inputs: str, out: str) -> list[str]:
    report = _report(out)
    problems = []
    top10 = {row["feature"] for row in report["ranking"][:10]}
    missing = set(ACCEPTANCE_FACTORS) - top10
    if missing:
        problems.append(f"planted features outside the top 10: {sorted(missing)}")
    best = report["best"]["learner"]
    accuracy = report["validation"][best]["accuracy"]
    if accuracy < 0.90:
        problems.append(f"best learner {best} validation accuracy {accuracy} < 0.90")
    return problems + _planted_rule_problems(report["rules"], "report.json")


def check_eliminate(rm, inputs: str, out: str) -> list[str]:
    report = _report(out)
    min_size = len(ELIMINATE_FEATURES) - 1
    problems = []
    rows = report["elimination"]["rows"]
    survivors = len(report["survivors"])
    sizes = [row["n_features"] for row in rows if not row["baseline"]]
    if sizes != list(range(survivors, min_size - 1, -1)):
        problems.append(f"trace visits sizes {sizes}, expected {survivors} down to {min_size}")
    if survivors <= min_size:
        problems.append(f"{survivors} survivors leave no elimination step above min_size {min_size}")
    for row in rows:
        bad = {k: a for k, a in row["accuracies"].items() if not 0.0 <= a <= 1.0}
        if bad or len(row["accuracies"]) != 6:
            problems.append(f"row with {row['n_features']} features has accuracies {row['accuracies']}")
    return problems


def check_augment_mine(rm, inputs: str, out: str) -> list[str]:
    return _augment_problems(rm, inputs, out) + _recount_problems(
        rm, os.path.join(inputs, "deep.csv"), os.path.join(out, "rules-deep.csv")
    )


def _augment_problems(rm, inputs: str, out: str) -> list[str]:
    schema = rm.default_schema()
    original = rm.load_dataset(os.path.join(inputs, "data.csv"), schema)
    try:
        augmented = rm.load_dataset(os.path.join(out, "augmented.csv"), schema)
    except rm.errors.DataError as exc:
        return [f"augmented.csv does not reload: {exc}"]
    problems = []
    counts = augmented.class_counts()
    if counts[0] != counts[1]:
        problems.append(f"classes not balanced: {counts}")
    n = len(original)
    if augmented.records[:n] != original.records or augmented.labels[:n] != original.labels:
        problems.append("original rows are not first and unchanged")
    if len(augmented) <= n:
        problems.append("augment added no rows")
    return problems + _planted_rule_problems(_read_rules(os.path.join(out, "rules.csv")), "rules.csv")


def _recount_problems(rm, data_csv: str, rules_csv: str) -> list[str]:
    """Every rule's support, confidence and lift against a recount."""
    schema = rm.default_schema()
    fm = rm.default_factor_map()
    fm = fm.restrict([f for f in fm.features if f in schema])
    transactions = rm.dissolve_dataset(rm.load_dataset(data_csv, schema), fm)
    rules = _read_rules(rules_csv)
    if not rules:
        return [f"{os.path.basename(rules_csv)}: no rules mined"]
    problems = []
    for r in rules:
        rule = rm.Rule(frozenset(r["antecedent"]), frozenset(r["consequent"]), 0.0, 0.0, 0.0)
        recount = rm.rule_metrics(rule, transactions)
        for key, value in zip(("support", "confidence", "lift"), recount):
            if abs(r[key] - value) > 5e-7 * max(1.0, abs(value)):  # rules.csv keeps 6 decimals
                problems.append(f"rule {r['antecedent']}: {key} {r[key]} but recount gives {value}")
    return problems[:5] + ([f"{len(problems) - 5} more mismatches"] if len(problems) > 5 else [])


# -- workload table ------------------------------------------------------------

@dataclass(frozen=True)
class Workload:
    name: str
    records: int  # input records one run processes
    prepare: Callable  # (seed, inputs dir, generate) -> None
    steps: Callable  # (inputs dir, out dir) -> list of riskminer CLI argument lists
    check: Callable  # (rm, inputs dir, out dir) -> list of failure messages


def _write_json(path: str, doc: dict) -> None:
    with open(path, "w", encoding="utf-8") as fh:
        json.dump(doc, fh, indent=2, sort_keys=True)


def _prepare_config(make: Callable):
    def prepare(seed, inputs, generate):
        _write_json(os.path.join(inputs, "config.json"), make(seed))
    return prepare


def _prepare_augment_mine(seed, inputs, generate):
    for name, make in (("data", augment_generator), ("deep", mine_deep_generator)):
        path = os.path.join(inputs, f"{name}.json")
        _write_json(path, make(seed))
        generate(["generate", "--config", path, "--out", os.path.join(inputs, f"{name}.csv")])


def _pipeline_steps(inputs, out):
    return [["pipeline", "--config", os.path.join(inputs, "config.json"), "--out", os.path.join(out, "report")]]


def _augment_mine_steps(inputs, out):
    augmented = os.path.join(out, "augmented.csv")
    return [
        ["augment", "--input", os.path.join(inputs, "data.csv"), "--seed", "42",
         "--target-total", str(AUGMENT_TOTAL), "--out", augmented],
        ["rank", "--input", augmented, "--out", os.path.join(out, "ranking.csv")],
        ["mine", "--input", augmented, "--min-support", "0.25", "--out", os.path.join(out, "rules.csv")],
        ["mine", "--input", os.path.join(inputs, "deep.csv"), "--min-support", str(MINE_DEEP_SUPPORT),
         "--out", os.path.join(out, "rules-deep.csv")],
    ]


WORKLOADS = {
    w.name: w
    for w in (
        Workload(
            "acceptance",
            ACCEPTANCE_RECORDS,
            _prepare_config(acceptance_config),
            _pipeline_steps,
            check_acceptance,
        ),
        Workload(
            "eliminate",
            ELIMINATE_RECORDS,
            _prepare_config(eliminate_config),
            _pipeline_steps,
            check_eliminate,
        ),
        Workload(
            "augment-mine",
            AUGMENT_RECORDS + MINE_DEEP_RECORDS,
            _prepare_augment_mine,
            _augment_mine_steps,
            check_augment_mine,
        ),
    )
}

"""Fixed outputs of the data layer, stated through the public API only: the
bytes of an augmented CSV and of the rules mined from it."""

from __future__ import annotations

import hashlib

from riskminer.dataset import write_csv
from riskminer.generate import GenSpec, PlantedFactor, PlantedRule, generate_synthetic
from riskminer.mining import apriori, default_factor_map, derive_rules, dissolve_dataset
from riskminer.pipeline import rules_csv
from riskminer.smote import resolve_targets, smote_n


def _pinned_dataset():
    spec = GenSpec(
        n_records=900,
        class_balance=0.4,
        planted_factors=(
            PlantedFactor("weak-password", 1, 0.75),
            PlantedFactor("receive-phishing-email", 1, 0.7),
        ),
        planted_rule=PlantedRule(
            factors=(("clicked-on-spam-email-links", 1), ("download-unauthorized-software", 1)),
            victim_prob=0.9,
            coverage=0.3,
        ),
        seed=4711,
    )
    return generate_synthetic(spec)


# sha256 of the bytes, recorded with the per-seed neighbour search and the
# horizontal Apriori count that the block search and the tidsets replaced
AUGMENTED_CSV_SHA256 = "f34a6be5bce41a0bf035173d7138bd6433f1286cc633de93e329d63cfde652cc"
RULES_CSV_SHA256 = "00d7baa015bc5c22ebed63fbd11a977152735ea71cf7a7637b2910bbb92c87d1"


def test_augmented_csv_and_rules_match_pinned_digests(tmp_path):
    ds = _pinned_dataset()
    augmented = smote_n(ds, resolve_targets(ds, True, 1500), k=5, seed=23)
    path = tmp_path / "augmented.csv"
    write_csv(augmented, path)
    assert hashlib.sha256(path.read_bytes()).hexdigest() == AUGMENTED_CSV_SHA256

    fm = default_factor_map()
    fm = fm.restrict([f for f in fm.features if f in ds.schema])
    itemsets = apriori(dissolve_dataset(augmented, fm), 0.2)
    rules = derive_rules(itemsets, 0.75, frozenset((fm.victim_item,)))
    descriptions = {e.factor_id: e.description for e in fm.entries}
    descriptions[fm.victim_item] = "victim"
    text = rules_csv(rules, descriptions)
    assert text.count("\n") > 5  # a header and several rules
    assert hashlib.sha256(text.encode()).hexdigest() == RULES_CSV_SHA256

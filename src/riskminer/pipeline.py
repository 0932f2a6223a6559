"""End-to-end orchestration: load or generate, augment, rank, eliminate,
evaluate, and mine, with deterministic report emission.

Stages run strictly in that order; any failure surfaces as a StageError
naming the stage, and no report files are written for a failed run. Two runs
with the same config and seed emit byte-identical files.
"""

from __future__ import annotations

import json
import math
import os
from dataclasses import dataclass, field

from .chisq import rank_features
from .classifiers import KINDS, ClassifierSpec, design_matrix, score_rows
from .dataset import Dataset, load_dataset, split_dataset
from .elimination import StepRecord, backward_eliminate, evaluate_learners
from .errors import ConfigError, StageError
from .generate import GenSpec, PlantedFactor, PlantedRule, generate_synthetic
from .metrics import MetricsReport, RocCurve, auc, classification_metrics, confusion, roc_points
from .mining import default_factor_map, derive_rules, dissolve_dataset
from .mining import apriori as mine_apriori
from .schema import Schema, default_schema, load_schema
from .smote import SmoteConfig, resolve_targets, smote_n

DEFAULT_RATIOS = (0.75, 0.175, 0.075)


@dataclass(frozen=True)
class PipelineConfig:
    input_path: str | None = None
    generator: GenSpec | None = None
    schema: Schema = field(default_factory=default_schema)
    seed: int = 42
    alpha: float = 0.05
    ratios: tuple[float, float, float] = DEFAULT_RATIOS
    stratified: bool = True
    smote_k: int = 5
    smote_target_total: int | None = None
    smote_balance: bool = True
    smote_seed: int | None = None
    learners: tuple[ClassifierSpec, ...] = ()
    min_size: int = 19
    min_support: float = 0.25
    min_confidence: float = 0.8
    max_rules: int = 10_000
    positive_class: int = 0

    def __post_init__(self):
        if (self.input_path is None) == (self.generator is None):
            raise ConfigError("exactly one of input path / generator must be set")
        if self.positive_class not in (0, 1):
            raise ConfigError("positive_class must be 0 or 1")
        kinds = [spec.kind for spec in self.learners]
        if not kinds:
            raise ConfigError("at least one learner is required")
        if len(set(kinds)) != len(kinds):
            raise ConfigError("duplicate learner kinds")


def default_learners(params: dict | None = None, kinds=KINDS) -> tuple[ClassifierSpec, ...]:
    params = params or {}
    return tuple(ClassifierSpec(kind=k, hyperparameters=params.get(k, {})) for k in kinds)


def config_from_dict(doc: dict, seed_override: int | None = None) -> PipelineConfig:
    """Build a PipelineConfig from a parsed JSON document."""
    schema = load_schema(doc["schema"]) if doc.get("schema") else default_schema()
    seed = seed_override if seed_override is not None else int(doc.get("seed", 42))

    generator = None
    if doc.get("generator"):
        generator = genspec_from_dict(doc["generator"], schema, default_seed=seed)

    smote_doc = doc.get("smote", {})
    elim_doc = doc.get("elimination", {})
    apriori_doc = doc.get("apriori", {})
    learners = default_learners(
        doc.get("classifier_params"), kinds=tuple(doc.get("learners", KINDS))
    )
    ratios = tuple(float(r) for r in doc.get("ratios", DEFAULT_RATIOS))
    if len(ratios) != 3:
        raise ConfigError("ratios must have exactly three entries")
    return PipelineConfig(
        input_path=doc.get("input"),
        generator=generator,
        schema=schema,
        seed=seed,
        alpha=float(doc.get("alpha", 0.05)),
        ratios=ratios,
        stratified=bool(doc.get("stratified", True)),
        smote_k=int(smote_doc.get("k", 5)),
        smote_target_total=smote_doc.get("target_total"),
        smote_balance=bool(smote_doc.get("balance", True)),
        smote_seed=smote_doc.get("seed"),
        learners=learners,
        min_size=int(elim_doc.get("min_size", 19)),
        min_support=float(apriori_doc.get("min_support", 0.25)),
        min_confidence=float(apriori_doc.get("min_confidence", 0.8)),
        max_rules=int(apriori_doc.get("max_rules", 10_000)),
        positive_class=int(doc.get("positive_class", 0)),
    )


def genspec_from_dict(doc: dict, schema: Schema, default_seed: int = 0) -> GenSpec:
    factors = tuple(
        PlantedFactor(
            feature=f["feature"],
            value=int(f["value"]),
            victim_prob=float(f["victim_prob"]),
            marginal=float(f.get("marginal", 0.5)),
        )
        for f in doc.get("planted_factors", [])
    )
    rule = None
    if doc.get("planted_rule"):
        r = doc["planted_rule"]
        rule = PlantedRule(
            factors=tuple((f, int(v)) for f, v in r["factors"]),
            victim_prob=float(r["victim_prob"]),
            coverage=float(r["coverage"]),
        )
    marginals = {
        feature: {int(v): float(p) for v, p in dist.items()}
        for feature, dist in doc.get("noise_marginals", {}).items()
    }
    return GenSpec(
        n_records=int(doc["n_records"]),
        class_balance=float(doc.get("class_balance", 0.5)),
        planted_factors=factors,
        planted_rule=rule,
        noise_marginals=marginals,
        seed=int(doc.get("seed", default_seed)),
        schema=schema,
    )


def config_echo(cfg: PipelineConfig) -> dict:
    """Config as stored in the report. Deliberately excludes the output
    directory so identical (config, seed) runs emit identical bytes."""
    gen = None
    if cfg.generator is not None:
        g = cfg.generator
        gen = {
            "n_records": g.n_records,
            "class_balance": g.class_balance,
            "seed": g.seed,
            "planted_factors": [
                {"feature": p.feature, "value": p.value, "victim_prob": p.victim_prob, "marginal": p.marginal}
                for p in g.planted_factors
            ],
            "planted_rule": None
            if g.planted_rule is None
            else {
                "factors": [list(f) for f in g.planted_rule.factors],
                "victim_prob": g.planted_rule.victim_prob,
                "coverage": g.planted_rule.coverage,
            },
            "noise_marginals": {f: {str(v): p for v, p in d.items()} for f, d in g.noise_marginals.items()},
        }
    return {
        "input": cfg.input_path,
        "generator": gen,
        "seed": cfg.seed,
        "alpha": cfg.alpha,
        "ratios": list(cfg.ratios),
        "stratified": cfg.stratified,
        "smote": {
            "k": cfg.smote_k,
            "target_total": cfg.smote_target_total,
            "balance": cfg.smote_balance,
            "seed": cfg.smote_seed,
        },
        "learners": [spec.kind for spec in cfg.learners],
        "classifier_params": {spec.kind: spec.resolved() for spec in cfg.learners},
        "elimination": {"min_size": cfg.min_size},
        "apriori": {
            "min_support": cfg.min_support,
            "min_confidence": cfg.min_confidence,
            "max_rules": cfg.max_rules,
        },
        "positive_class": cfg.positive_class,
    }


@dataclass
class PipelineReport:
    config: dict
    ranking: list  # (feature, p_value, keep)
    survivors: tuple[str, ...]
    split_sizes: dict
    elimination_rows: list  # dicts: n_features/features/accuracies/aucs/removed/baseline
    final_selection: tuple[str, ...]
    best: dict  # learner / features / test_accuracy / test_auc
    validation: dict  # kind -> {"metrics": MetricsReport, "auc", "accuracy", "warnings"}
    roc_curves: dict  # kind -> RocCurve
    headline_confusion: object
    rules: list  # of Rule
    factor_descriptions: dict  # factor id -> text
    n_transactions: int

    def to_dict(self) -> dict:
        validation = {}
        for kind, entry in self.validation.items():
            report: MetricsReport = entry["metrics"]
            validation[kind] = {
                "accuracy": report.accuracy,
                "weighted_f1": report.weighted_f1,
                "auc": entry["auc"],
                "flags": list(report.flags),
                "warnings": list(entry["warnings"]),
                "per_class": {
                    str(label): {
                        "precision": m.precision,
                        "recall": m.recall,
                        "tnr": m.tnr,
                        "f1": m.f1,
                        "support": m.support,
                    }
                    for label, m in report.per_class.items()
                },
            }
        cm = self.headline_confusion
        return {
            "config": self.config,
            "ranking": [
                {"feature": f, "p_value": p, "keep": keep} for f, p, keep in self.ranking
            ],
            "survivors": list(self.survivors),
            "split_sizes": self.split_sizes,
            "elimination": {
                "rows": self.elimination_rows,
                "final_selection": list(self.final_selection),
            },
            "best": self.best,
            "validation": validation,
            "confusion": {
                "positive": cm.positive,
                "tp": cm.tp,
                "fn": cm.fn,
                "fp": cm.fp,
                "tn": cm.tn,
            },
            "rules": [
                {
                    "antecedent": sorted(r.antecedent),
                    "consequent": sorted(r.consequent),
                    "support": r.support,
                    "confidence": r.confidence,
                    "lift": r.lift,
                }
                for r in self.rules
            ],
            "n_transactions": self.n_transactions,
        }


def _stage(name, fn, *args, **kwargs):
    try:
        return fn(*args, **kwargs)
    except StageError:
        raise
    except Exception as exc:
        raise StageError(name, exc) from exc


_LEARNER_ORDER = {kind: i for i, kind in enumerate(KINDS)}


def run_pipeline(cfg: PipelineConfig) -> PipelineReport:
    # load / generate
    if cfg.input_path is not None:
        ds = _stage("load", load_dataset, cfg.input_path, cfg.schema)
    else:
        ds = _stage("load", generate_synthetic, cfg.generator)

    # augment
    def _augment() -> Dataset:
        targets = resolve_targets(ds, cfg.smote_balance, cfg.smote_target_total)
        if targets == ds.class_counts():
            return ds
        seed = cfg.smote_seed if cfg.smote_seed is not None else cfg.seed
        return smote_n(ds, SmoteConfig(target_per_class=targets, k=cfg.smote_k, seed=seed))

    augmented = _stage("augment", _augment)

    # rank
    ranking = _stage("rank", rank_features, augmented, cfg.alpha)
    survivors = tuple(
        sorted((f for f, _, keep in ranking if keep), key=cfg.schema.index_of)
    )
    if not survivors:
        raise StageError("rank", RuntimeError("no feature passed the significance filter"))

    # split
    splits = _stage("split", split_dataset, augmented, cfg.ratios, cfg.seed, cfg.stratified)

    # eliminate (with the all-features baseline recorded first)
    def _eliminate():
        base_acc, base_auc, base_models = evaluate_learners(
            splits, cfg.learners, cfg.schema.feature_names, positive=cfg.positive_class
        )
        baseline = StepRecord(cfg.schema.feature_names, base_acc, base_auc, None, base_models)
        trace = backward_eliminate(
            splits,
            cfg.learners,
            cfg.min_size,
            features=survivors,
            positive=cfg.positive_class,
        )
        return baseline, trace

    baseline, trace = _stage("eliminate", _eliminate)
    steps = (baseline,) + trace.steps

    rows = []
    for step in steps:
        rows.append(
            {
                "baseline": step is baseline,
                "n_features": len(step.features),
                "features": list(step.features),
                "removed": step.removed,
                "accuracies": dict(step.accuracies),
                "aucs": dict(step.aucs),
            }
        )

    # best (learner, feature set) by test accuracy, then AUC, then kind order,
    # then the smaller set
    def _pick_best():
        best_key, best_payload = None, None
        for row in rows:
            for kind, acc in row["accuracies"].items():
                key = (
                    acc,
                    row["aucs"][kind],
                    -_LEARNER_ORDER[kind],
                    -row["n_features"],
                )
                if best_key is None or key > best_key:
                    best_key = key
                    best_payload = {
                        "learner": kind,
                        "features": list(row["features"]),
                        "test_accuracy": acc,
                        "test_auc": row["aucs"][kind],
                    }
        return best_payload

    best = _stage("select", _pick_best)
    selected = tuple(best["features"])

    # evaluate on validation the models that elimination trained on the
    # selected set; training is pure, so re-training would give the same ones
    def _validate():
        models = next(step.models for step in steps if step.features == selected)
        X_val, y_val = design_matrix(splits.validation, selected)
        validation, curves = {}, {}
        headline_cm = None
        for spec in cfg.learners:
            model = models[spec.kind]
            scores = score_rows(model, X_val)
            predictions = (scores >= 0.5).astype(int)
            cm = confusion(y_val.tolist(), predictions.tolist(), cfg.positive_class)
            report = classification_metrics(cm)
            oriented = scores if cfg.positive_class == 1 else 1.0 - scores
            curve = roc_points(y_val, oriented, cfg.positive_class)
            validation[spec.kind] = {
                "metrics": report,
                "auc": auc(curve),
                "accuracy": report.accuracy,
                "warnings": model.warnings,
            }
            curves[spec.kind] = curve
            if spec.kind == best["learner"]:
                headline_cm = cm
        return validation, curves, headline_cm

    validation, curves, headline_cm = _stage("evaluate", _validate)

    # dissolve + mine over the selected risk features
    def _mine():
        fm = default_factor_map().restrict(selected)
        transactions = dissolve_dataset(augmented, fm)
        itemsets = mine_apriori(transactions, cfg.min_support)
        rules = derive_rules(
            itemsets,
            cfg.min_confidence,
            frozenset((fm.victim_item,)),
            cap=cfg.max_rules,
        )
        descriptions = {e.factor_id: e.description for e in fm.entries}
        descriptions[fm.victim_item] = "victim"
        return rules, descriptions, len(transactions)

    rules, descriptions, n_transactions = _stage("mine", _mine)

    return PipelineReport(
        config=config_echo(cfg),
        ranking=ranking,
        survivors=survivors,
        split_sizes={
            "train": len(splits.train),
            "test": len(splits.test),
            "validation": len(splits.validation),
        },
        elimination_rows=rows,
        final_selection=trace.final_selection,
        best=best,
        validation=validation,
        roc_curves=curves,
        headline_confusion=headline_cm,
        rules=rules,
        factor_descriptions=descriptions,
        n_transactions=n_transactions,
    )


# -- report emission -------------------------------------------------------

def _write(path: str, text: str) -> None:
    try:
        with open(path, "w", encoding="utf-8", newline="") as fh:
            fh.write(text)
    except OSError as exc:
        raise StageError("emit", OSError(f"cannot write {path}: {exc}")) from exc


def ranking_csv(ranking) -> str:
    lines = ["feature,p_value,keep"]
    for feature, p, keep in ranking:
        lines.append(f"{feature},{p:.6e},{str(keep).lower()}")
    return "\n".join(lines) + "\n"


def elimination_csv(rows, kinds) -> str:
    header = ["step", "n_features", "removed"] + list(kinds)
    lines = [",".join(header)]
    for i, row in enumerate(rows):
        step = "baseline" if row["baseline"] else str(i)
        removed = row["removed"] or ""
        accs = [f"{100.0 * row['accuracies'][k]:.2f}" for k in kinds]
        lines.append(",".join([step, str(row["n_features"]), removed] + accs))
    return "\n".join(lines) + "\n"


def metrics_csv(validation) -> str:
    lines = ["learner,class,precision,recall,f1,support,accuracy_pct,weighted_f1,auc"]
    for kind in sorted(validation, key=lambda k: _LEARNER_ORDER[k]):
        entry = validation[kind]
        report: MetricsReport = entry["metrics"]
        for label in sorted(report.per_class):
            m = report.per_class[label]
            class_name = "non-victim" if label == 0 else "victim"
            lines.append(
                f"{kind},{class_name},{m.precision:.2f},{m.recall:.2f},{m.f1:.2f},"
                f"{m.support},{100.0 * report.accuracy:.2f},{report.weighted_f1:.2f},"
                f"{entry['auc']:.2f}"
            )
    return "\n".join(lines) + "\n"


def roc_csv(curve: RocCurve) -> str:
    lines = ["threshold,fpr,tpr"]
    for threshold, (fpr, tpr) in zip(curve.thresholds, curve.points):
        t = "inf" if math.isinf(threshold) else repr(threshold)
        lines.append(f"{t},{fpr!r},{tpr!r}")
    return "\n".join(lines) + "\n"


def rules_csv(rules, descriptions) -> str:
    lines = ["antecedent_ids,antecedent,consequent,support,confidence,lift"]
    for r in rules:
        ante_ids = " ".join(str(i) for i in sorted(r.antecedent))
        ante_text = "; ".join(descriptions[i] for i in sorted(r.antecedent))
        cons = " ".join(str(i) for i in sorted(r.consequent))
        lines.append(
            f"{ante_ids},\"{ante_text}\",{cons},{r.support:.6f},{r.confidence:.6f},{r.lift:.6f}"
        )
    return "\n".join(lines) + "\n"


def confusion_csv(cm) -> str:
    pos_name = "non-victim" if cm.positive == 0 else "victim"
    neg_name = "victim" if cm.positive == 0 else "non-victim"
    return (
        f",predicted_{pos_name},predicted_{neg_name}\n"
        f"actual_{pos_name},{cm.tp},{cm.fn}\n"
        f"actual_{neg_name},{cm.fp},{cm.tn}\n"
    )


def emit_report(report: PipelineReport, out_dir: str) -> list[str]:
    """Write report.json and the CSV set into *out_dir*; returns the paths.

    Emission is all-or-nothing per run_pipeline: this function is only called
    with a fully computed report.
    """
    os.makedirs(out_dir, exist_ok=True)
    kinds = [k for k in KINDS if k in report.validation]
    written = []

    def emit(name: str, text: str) -> None:
        path = os.path.join(out_dir, name)
        _write(path, text)
        written.append(path)

    emit("report.json", json.dumps(report.to_dict(), sort_keys=True, indent=2) + "\n")
    emit("ranking.csv", ranking_csv(report.ranking))
    emit("elimination.csv", elimination_csv(report.elimination_rows, kinds))
    emit("metrics.csv", metrics_csv(report.validation))
    for kind in kinds:
        emit(f"roc_{kind}.csv", roc_csv(report.roc_curves[kind]))
    emit("rules.csv", rules_csv(report.rules, report.factor_descriptions))
    emit("confusion.csv", confusion_csv(report.headline_confusion))
    return written

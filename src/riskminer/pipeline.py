"""End-to-end orchestration: load or generate, augment, rank, eliminate,
evaluate, and mine, with deterministic report emission.

Each stage is one function (``smote_n`` on ``resolve_targets``,
``survivors``, ``eliminate``, ``validate``, ``mine``) that both
``run_pipeline`` and the CLI subcommands call, so a stage run on its own
computes what it computes inside the pipeline. Stages run strictly in that
order; any failure surfaces as a StageError naming the stage, and no report
files are written for a failed run. Two runs with the same config and seed
emit byte-identical files.

The config document is read, and echoed into the report, from one table of
(dotted config key, dataclass field, parser) entries per config dataclass. A
key that no table names is refused, each value's type is checked as it is
read, and each range by the check of the stage that uses the value.
"""

from __future__ import annotations

import json
import os
import tempfile
from dataclasses import asdict, dataclass, field, is_dataclass

from .chisq import check_alpha, rank_features
from .classifiers import KINDS, ClassifierSpec
from .dataset import Dataset, check_ratios, load_dataset, split_dataset
from .elimination import backward_eliminate, best_choice, check_min_size, metrics_doc, validate
from .errors import ConfigError, StageError, check_ints, check_numbers
from .files import write_text
from .generate import GenSpec, PlantedFactor, PlantedRule, generate_synthetic
from .metrics import MetricsReport, RocCurve
from .mining import check_rule_limits, check_support, dataset_itemsets, derive_rules
from .schema import Schema, default_factor_map, default_schema, load_schema
from .smote import check_k, resolve_targets, smote_n

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
        check_k(self.smote_k)
        check_alpha(self.alpha)
        check_ratios(self.ratios)
        check_min_size(self.min_size)
        check_support(self.min_support)
        check_rule_limits(self.min_confidence, self.max_rules)
        kinds = [spec.kind for spec in self.learners]
        if not kinds:
            raise ConfigError("at least one learner is required")
        if len(set(kinds)) != len(kinds):
            raise ConfigError("duplicate learner kinds")


# Parsers of one (dotted key, value) pair. They check a value's type only;
# PipelineConfig and GenSpec check the ranges.

def _integer(key: str, value) -> int:
    check_ints(None, **{key: value})
    return value


def _number(key: str, value) -> float:
    check_numbers(False, **{key: value})
    return float(value)


def _flag(key: str, value) -> bool:
    if not isinstance(value, bool):
        raise ConfigError(f"{key} must be true or false, got {value!r}")
    return value


def _path(key: str, value) -> str | None:
    if value is not None and not isinstance(value, str):
        raise ConfigError(f"{key} must be a path or null, got {value!r}")
    return value


def _ratios(key: str, value) -> tuple[float, float, float]:
    """Train / test / validation ratios from a list or a comma-separated string."""
    if isinstance(value, str):
        try:
            value = [float(r) for r in value.split(",")]
        except ValueError:
            raise ConfigError(f"{key} must be numbers, got {value!r}") from None
    if not isinstance(value, (list, tuple)) or len(value) != 3:
        raise ConfigError(f"{key} must be three numbers, got {value!r}")
    return tuple(_number(key, r) for r in value)


# (dotted key in the config document, dataclass field, parser). config_from_dict
# parses by walking these tables and config_echo writes the report's config
# from them; a key absent from the document leaves the field at its dataclass
# default, except that generator.seed defaults to the top-level seed.
CONFIG_FIELDS = (
    ("input", "input_path", _path),
    ("seed", "seed", _integer),
    ("alpha", "alpha", _number),
    ("ratios", "ratios", _ratios),
    ("stratified", "stratified", _flag),
    ("smote.k", "smote_k", _integer),
    ("smote.target_total", "smote_target_total", lambda key, v: None if v is None else _integer(key, v)),
    ("smote.balance", "smote_balance", _flag),
    ("elimination.min_size", "min_size", _integer),
    ("apriori.min_support", "min_support", _number),
    ("apriori.min_confidence", "min_confidence", _number),
    ("apriori.max_rules", "max_rules", _integer),
    ("positive_class", "positive_class", _integer),
)

# GenSpec checks each feature name, code and probability against its schema.
PLANTED_FACTOR_FIELDS = (
    ("feature", "feature", lambda _, name: name),
    ("value", "value", _integer),
    ("victim_prob", "victim_prob", _number),
    ("marginal", "marginal", _number),
)

PLANTED_RULE_FIELDS = (
    ("factors", "factors", lambda key, pairs: tuple((name, _integer(key, v)) for name, v in pairs)),
    ("victim_prob", "victim_prob", _number),
    ("coverage", "coverage", _number),
)

GENERATOR_FIELDS = (
    ("n_records", "n_records", _integer),
    ("class_balance", "class_balance", _number),
    ("seed", "seed", _integer),
    ("planted_factors", "planted_factors", lambda key, docs: tuple(
        _parse(PlantedFactor, PLANTED_FACTOR_FIELDS, doc, f"{key}[{i}].") for i, doc in enumerate(docs))),
    ("planted_rule", "planted_rule", lambda key, doc: None if doc is None else _parse(
        PlantedRule, PLANTED_RULE_FIELDS, doc, f"{key}.")),
    # feature -> {code: probability}; a JSON object keys each code as a string, which must be the code's
    # decimal form: "01" or " 1" would name the code of "1", and one of the two probabilities would be lost
    ("noise_marginals", "noise_marginals", lambda key, docs: {name: {
        _integer(f"{key}.{name}", int(v) if str(int(v)) == v else v): _number(f"{key}.{name}", p)
        for v, p in dist.items()} for name, dist in docs.items()}),
)


_ABSENT: dict = {}  # a missing key; a dict, so that deeper lookups stay absent


def _parse(cls, table, doc: dict, prefix: str = "", own=(), **given):
    """Build *cls* from *given* and the *table* entries present in *doc*; a
    key of *doc* or of its sections that neither the table nor *own* names
    is refused."""
    if not isinstance(doc, dict):
        raise ConfigError(f"{prefix.rstrip('.')} must be an object, got {doc!r}")
    known = {key for key, _, _ in table} | set(own)
    sections = {key.split(".")[0] for key in known if "." in key}
    unknown = [key for key in doc if key not in known and key not in sections] + [
        f"{section}.{key}" for section in sections if isinstance(doc.get(section), dict)
        for key in doc[section] if f"{section}.{key}" not in known
    ]
    if unknown:
        raise ConfigError(f"unknown config keys {[prefix + key for key in unknown]}")
    for key, name, parse in table:
        node = doc
        for part in key.split("."):
            if not isinstance(node, dict):
                raise ConfigError(f"{prefix}{key}: {node!r} is not an object")
            node = node.get(part, _ABSENT)
        if node is not _ABSENT:
            try:
                given[name] = parse(prefix + key, node)
            except (KeyError, TypeError, ValueError, AttributeError) as exc:
                raise ConfigError(f"{prefix}{key}: cannot parse {node!r} ({exc!r})") from None
    try:
        return cls(**given)
    except TypeError as exc:  # a required key is absent
        raise ConfigError(f"{prefix}{exc}") from None


def _plain(value):
    """*value* as the report's JSON types: lists for tuples, dicts with
    string keys for mappings and dataclasses."""
    if is_dataclass(value):
        value = asdict(value)
    if isinstance(value, dict):
        return {str(k): _plain(v) for k, v in value.items()}
    if isinstance(value, (tuple, list)):
        return [_plain(v) for v in value]
    return value


def _echo(table, obj) -> dict:
    doc: dict = {}
    for key, name, _ in table:
        *parents, last = key.split(".")
        node = doc
        for part in parents:
            node = node.setdefault(part, {})
        node[last] = _plain(getattr(obj, name))
    return doc


def config_from_dict(doc: dict) -> PipelineConfig:
    """Build a PipelineConfig from a parsed JSON document. Every entry of
    ``classifier_params`` is checked, also one for a kind that ``learners``
    leaves out."""
    schema_path = _path("schema", doc.get("schema"))
    schema = load_schema(schema_path) if schema_path else default_schema()
    seed = _integer("seed", doc.get("seed", PipelineConfig.seed))
    generator = doc.get("generator")
    generator = None if generator is None else _parse(GenSpec, GENERATOR_FIELDS, generator, "generator.",
                                                     schema=schema, seed=seed)
    params, kinds = doc.get("classifier_params"), doc.get("learners", KINDS)
    if not isinstance(params, (dict, type(None))):
        raise ConfigError(f"classifier_params must be an object of objects, got {params!r}")
    if not isinstance(kinds, (list, tuple)):
        raise ConfigError(f"learners must be a list of kinds, got {kinds!r}")
    specs = {kind: ClassifierSpec(kind, hyper) for kind, hyper in (params or {}).items()}
    learners = tuple(specs.get(spec.kind, spec) for spec in map(ClassifierSpec, kinds))
    own = ("schema", "generator", "learners", "classifier_params")
    return _parse(PipelineConfig, CONFIG_FIELDS, doc, own=own, schema=schema, generator=generator, learners=learners)


def config_echo(cfg: PipelineConfig) -> dict:
    """Config as stored in the report. Deliberately excludes the output
    directory so identical (config, seed) runs emit identical bytes."""
    return {
        **_echo(CONFIG_FIELDS, cfg),
        "generator": None if cfg.generator is None else _echo(GENERATOR_FIELDS, cfg.generator),
        "learners": [spec.kind for spec in cfg.learners],
        "classifier_params": {spec.kind: spec.resolved() for spec in cfg.learners},
    }


# -- stages shared with the CLI ----------------------------------------------

def survivors(ranking, schema: Schema) -> tuple[str, ...]:
    """The features *ranking* keeps, in schema order."""
    kept = tuple(sorted((f for f, _, keep in ranking if keep), key=schema.index_of))
    if not kept:
        raise StageError("rank", RuntimeError("no feature passed the significance filter"))
    return kept


def eliminate(splits, learners, min_size: int, features, positive: int):
    """The all-features baseline, then backward elimination from *features*.

    Returns the report rows (baseline first), the visited steps in the same
    order, and their ``best_choice``: the selected (step, learner kind).
    """
    steps = backward_eliminate(splits, learners, min_size, features, positive, baseline=True)
    rows = [
        {
            "baseline": i == 0,
            "n_features": len(step.features),
            "features": list(step.features),
            "removed": step.removed,
            "accuracies": dict(step.accuracies),
            "aucs": dict(step.aucs),
        }
        for i, step in enumerate(steps)
    ]
    return rows, steps, best_choice(steps)


def mine(ds: Dataset, features, min_support: float, min_confidence: float, max_rules: int):
    """Victim rules over the catalog factors of *features*: the rules, the
    factor descriptions, and the number of transactions (records)."""
    fm = default_factor_map().restrict(features)
    itemsets = dataset_itemsets(ds, fm, min_support)
    rules = derive_rules(itemsets, min_confidence, frozenset((fm.victim_item,)), cap=max_rules)
    descriptions = {e.factor_id: e.description for e in fm.entries}
    descriptions[fm.victim_item] = "victim"
    return rules, descriptions, len(ds)


@dataclass
class PipelineReport:
    config: dict
    ranking: list  # (feature, p_value, keep)
    survivors: tuple[str, ...]
    split_sizes: dict
    elimination_rows: list  # dicts: n_features/features/accuracies/aucs/removed/baseline
    final_selection: tuple[str, ...]
    best: dict  # learner / features / test_accuracy / test_auc
    validation: dict  # kind -> validate() entry plus "warnings"
    rules: list  # of Rule
    factor_descriptions: dict  # factor id -> text
    n_transactions: int

    def to_dict(self) -> dict:
        validation = {
            kind: {**metrics_doc(entry), "warnings": list(entry["warnings"])}
            for kind, entry in self.validation.items()
        }
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
            "confusion": asdict(self.validation[self.best["learner"]]["confusion"]),
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


def run_pipeline(cfg: PipelineConfig) -> PipelineReport:
    if cfg.input_path is not None:
        ds = _stage("load", load_dataset, cfg.input_path, cfg.schema)
    else:
        ds = _stage("load", generate_synthetic, cfg.generator)
    targets = _stage("augment", resolve_targets, ds, cfg.smote_balance, cfg.smote_target_total)
    augmented = _stage("augment", smote_n, ds, targets, cfg.smote_k, cfg.seed)
    ranking = _stage("rank", rank_features, augmented, cfg.alpha)
    kept = _stage("rank", survivors, ranking, cfg.schema)
    splits = _stage("split", split_dataset, augmented, cfg.ratios, cfg.seed, cfg.stratified)
    rows, steps, (chosen, kind) = _stage(
        "eliminate", eliminate, splits, cfg.learners, cfg.min_size, kept, cfg.positive_class
    )
    selected = chosen.features
    best = {
        "learner": kind,
        "features": list(selected),
        "test_accuracy": chosen.accuracies[kind],
        "test_auc": chosen.aucs[kind],
    }

    # evaluate on validation the models that elimination trained on the
    # selected set; training is pure, so re-training would give the same ones
    validation = _stage("evaluate", lambda: {
        kind: {**validate(model, splits.validation, cfg.positive_class), "warnings": model.warnings}
        for kind, model in chosen.models.items()
    })
    rules, descriptions, n_transactions = _stage(
        "mine", mine, augmented, selected, cfg.min_support, cfg.min_confidence, cfg.max_rules
    )
    return PipelineReport(
        config=config_echo(cfg),
        ranking=ranking,
        survivors=kept,
        split_sizes={part: len(getattr(splits, part)) for part in ("train", "test", "validation")},
        elimination_rows=rows,
        final_selection=selected,
        best=best,
        validation=validation,
        rules=rules,
        factor_descriptions=descriptions,
        n_transactions=n_transactions,
    )


# -- report emission -------------------------------------------------------

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
    for kind in sorted(validation, key=KINDS.index):
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
    points = zip(*(c.tolist() for c in (curve.thresholds, curve.fpr, curve.tpr)))
    return "".join(["threshold,fpr,tpr\n", *(",".join(map(repr, point)) + "\n" for point in points)])


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

    Every file is rendered first, then written into a temporary sibling of
    *out_dir*. The sibling is renamed to *out_dir*, or, when *out_dir*
    already exists, each file is moved into it. The sibling is removed on
    every path, so a failed emission leaves no partial report behind.
    """
    kinds = [k for k in KINDS if k in report.validation]
    files = [
        ("report.json", json.dumps(report.to_dict(), sort_keys=True, indent=2) + "\n"),
        ("ranking.csv", ranking_csv(report.ranking)),
        ("elimination.csv", elimination_csv(report.elimination_rows, kinds)),
        ("metrics.csv", metrics_csv(report.validation)),
        *((f"roc_{kind}.csv", roc_csv(report.validation[kind]["curve"])) for kind in kinds),
        ("rules.csv", rules_csv(report.rules, report.factor_descriptions)),
        ("confusion.csv", confusion_csv(report.validation[report.best["learner"]]["confusion"])),
    ]
    target = os.path.abspath(out_dir)
    parent = os.path.dirname(target)
    try:
        os.makedirs(parent, exist_ok=True)
        with tempfile.TemporaryDirectory(prefix=f".{os.path.basename(target)}-", dir=parent) as scratch:
            staged = os.path.join(scratch, "report")
            os.mkdir(staged)  # under the umask, where the temporary directory itself is private
            for name, text in files:
                write_text(os.path.join(staged, name), text)
            if os.path.isdir(target):
                for name, _ in files:
                    os.replace(os.path.join(staged, name), os.path.join(target, name))
            else:
                os.rename(staged, target)
    except OSError as exc:
        raise StageError("emit", OSError(f"cannot write {out_dir}: {exc}")) from exc
    return [os.path.join(out_dir, name) for name, _ in files]

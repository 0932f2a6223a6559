"""Command-line interface.

Subcommands mirror the pipeline stages (generate, augment, rank, eliminate,
train, evaluate, mine) plus `pipeline`, which runs everything and emits the
report file set. Each stage subcommand loads its files and calls the same
stage function that ``run_pipeline`` calls (``augment``, ``survivors`` and
``eliminate``, ``validate``, ``mine``), so chaining the individual
subcommands with the same seeds reproduces the pipeline's outputs.

Every setting flag is a config key: a subcommand's settings are one
``PipelineConfig``, parsed by ``config_from_dict`` from its ``--config``
document (or an empty one) with the flags it was given laid over it.

Exit codes: 0 success, 2 configuration error, 3 data error, 4 stage failure.
A value that cannot be used is reported where it is read, as a
configuration error; so is a config, features, schema or model file that
cannot be read.
"""

from __future__ import annotations

import argparse
import json
import sys

from . import classifiers
from .chisq import rank_features
from .dataset import load_dataset, split_dataset, write_csv
from .errors import ConfigError, DataError, StageError
from .files import read_json, write_text
from .generate import generate_synthetic
from .pipeline import (
    CONFIG_FIELDS,
    PipelineConfig,
    augment,
    config_from_dict,
    eliminate,
    elimination_csv,
    emit_report,
    metrics_doc,
    mine,
    ranking_csv,
    roc_csv,
    rules_csv,
    run_pipeline,
    survivors,
    validate,
)

# the keys a flag can set: a flag's dest names its config key
CONFIG_KEYS = {key for key, _, _ in CONFIG_FIELDS} | {"schema", "learners"}


def _settings(args) -> PipelineConfig:
    """The ``--config`` document, or an empty one, with the config-key flags laid over it."""
    doc = read_json(args.config, "config") if "config" in vars(args) else {}
    for key, value in vars(args).items():
        if key in CONFIG_KEYS and value is not None:
            *parents, last = key.split(".")
            node = doc
            for part in parents:
                node = node.setdefault(part, {})
            node[last] = value
    return config_from_dict(doc)


def _load_input(cfg: PipelineConfig):
    try:
        return load_dataset(cfg.input_path, cfg.schema)
    except OSError as exc:
        raise DataError(f"cannot read dataset {cfg.input_path}: {exc}") from exc


def _names(text: str) -> list[str]:
    return [n.strip() for n in text.split(",")]


def _known_features(names, schema) -> list[str]:
    if not isinstance(names, list) or not names or any(n not in schema for n in names):
        raise ConfigError(f"features must be schema feature names, got {names!r}")
    return names


# -- subcommand handlers ---------------------------------------------------

def cmd_generate(args, cfg: PipelineConfig) -> int:
    if cfg.generator is None:
        raise ConfigError("config has no 'generator' section")
    ds = generate_synthetic(cfg.generator)
    write_csv(ds, args.out)
    print(f"wrote {len(ds)} records to {args.out}")
    return 0


def cmd_augment(args, cfg: PipelineConfig) -> int:
    ds = _load_input(cfg)
    out = augment(ds, cfg.smote_balance, cfg.smote_target_total, cfg.smote_k, cfg.seed)
    write_csv(out, args.out)
    print(f"wrote {len(out)} records ({len(out) - len(ds)} synthetic) to {args.out}")
    return 0


def cmd_rank(args, cfg: PipelineConfig) -> int:
    ranking = rank_features(_load_input(cfg), cfg.alpha)
    write_text(args.out, ranking_csv(ranking))
    kept = sum(1 for _, _, keep in ranking if keep)
    print(f"ranked {len(ranking)} features, kept {kept} at alpha={cfg.alpha}")
    return 0


def cmd_eliminate(args, cfg: PipelineConfig) -> int:
    ds = _load_input(cfg)
    splits = split_dataset(ds, cfg.ratios, cfg.seed, stratified=cfg.stratified)
    kept = survivors(rank_features(ds, cfg.alpha), cfg.schema)
    rows, steps, (chosen, _) = eliminate(splits, cfg.learners, cfg.min_size, kept, cfg.positive_class)
    write_text(args.out, elimination_csv(rows, [spec.kind for spec in cfg.learners]))
    if args.selection:
        write_text(args.selection, json.dumps({"final_selection": list(chosen.features)}, indent=2) + "\n")
    print(f"eliminated down to {len(steps[-1].features)} features; selected {len(chosen.features)}")
    return 0


def cmd_train(args, cfg: PipelineConfig) -> int:
    ds = _load_input(cfg)
    if args.features_file:
        features = _known_features(read_json(args.features_file, "features file").get("final_selection"), cfg.schema)
    elif args.features:
        features = _known_features(_names(args.features), cfg.schema)
    else:
        features = list(cfg.schema.feature_names)
    hyperparameters = {} if args.learner_seed is None else {"seed": args.learner_seed}
    model = classifiers.train(classifiers.ClassifierSpec(args.learner, hyperparameters), ds, features)
    classifiers.save_model(model, args.out)
    notice = f" ({'; '.join(model.warnings)})" if model.warnings else ""
    print(f"trained {args.learner} on {len(features)} features -> {args.out}{notice}")
    return 0


def cmd_evaluate(args, cfg: PipelineConfig) -> int:
    model = classifiers.load_model(args.model)
    ds = _load_input(cfg)
    _known_features(list(model.features), ds.schema)
    entry = validate(model, ds, cfg.positive_class)
    cm = entry["confusion"]
    doc = {
        "model": model.kind,
        "positive": cfg.positive_class,
        "confusion": {"tp": cm.tp, "fn": cm.fn, "fp": cm.fp, "tn": cm.tn},
        **metrics_doc(entry),
    }
    write_text(args.out, json.dumps(doc, sort_keys=True, indent=2) + "\n")
    if args.roc:
        write_text(args.roc, roc_csv(entry["curve"]))
    report = entry["metrics"]
    print(f"accuracy {100 * report.accuracy:.2f}%, weighted f1 {report.weighted_f1:.2f}, "
          f"auc {entry['auc']:.2f}")
    return 0


def cmd_mine(args, cfg: PipelineConfig) -> int:
    ds = _load_input(cfg)
    features = _known_features(_names(args.features), cfg.schema) if args.features else cfg.schema.feature_names
    rules, descriptions, n_transactions = mine(ds, features, cfg.min_support, cfg.min_confidence, cfg.max_rules)
    write_text(args.out, rules_csv(rules, descriptions))
    print(f"mined {len(rules)} victim rules from {n_transactions} transactions")
    return 0


def cmd_pipeline(args, cfg: PipelineConfig) -> int:
    report = run_pipeline(cfg)
    written = emit_report(report, args.out)
    best = report.best
    print(
        f"best: {best['learner']} on {len(best['features'])} features, "
        f"test accuracy {100 * best['test_accuracy']:.2f}%; "
        f"{len(report.rules)} rules; wrote {len(written)} files to {args.out}"
    )
    return 0


# -- parser ----------------------------------------------------------------

def build_parser() -> argparse.ArgumentParser:
    """The CLI's parser. A setting flag's ``dest`` is the config key it sets,
    and it has no default of its own: an absent flag leaves the key at its
    ``PipelineConfig`` default."""
    parser = argparse.ArgumentParser(
        prog="riskminer",
        description="Cyber-risk survey analytics: augmentation, feature analysis, "
        "classification, and risk-rule mining.",
    )
    sub = parser.add_subparsers(dest="command", required=True)
    data = argparse.ArgumentParser(add_help=False)  # the options every data stage reads
    data.add_argument("--input", required=True)
    data.add_argument("--schema")

    p = sub.add_parser("generate", help="generate a synthetic dataset from a config")
    p.add_argument("--config", required=True)
    p.add_argument("--seed", type=int)
    p.set_defaults(handler=cmd_generate)

    p = sub.add_parser("augment", parents=[data], help="grow a dataset with categorical SMOTE")
    p.add_argument("--k", type=int, dest="smote.k")
    p.add_argument("--target-total", type=int, dest="smote.target_total")
    p.add_argument("--balance", action=argparse.BooleanOptionalAction, dest="smote.balance")
    p.add_argument("--seed", type=int)
    p.set_defaults(handler=cmd_augment)

    p = sub.add_parser("rank", parents=[data], help="chi-squared feature ranking")
    p.add_argument("--alpha", type=float)
    p.set_defaults(handler=cmd_rank)

    p = sub.add_parser("eliminate", parents=[data], help="backward elimination over the significant features")
    p.add_argument("--alpha", type=float)
    p.add_argument("--ratios")
    p.add_argument("--no-stratify", action="store_false", dest="stratified", default=None)
    p.add_argument("--seed", type=int)
    p.add_argument("--learners", type=_names)
    p.add_argument("--min-size", type=int, dest="elimination.min_size")
    p.add_argument("--positive", type=int, dest="positive_class")
    p.add_argument("--selection")
    p.set_defaults(handler=cmd_eliminate)

    p = sub.add_parser("train", parents=[data], help="train one classifier")
    p.add_argument("--learner", required=True, choices=classifiers.KINDS)
    p.add_argument("--features")
    p.add_argument("--features-file", dest="features_file")
    p.add_argument("--seed", type=int, dest="learner_seed")  # RF's seed hyperparameter
    p.set_defaults(handler=cmd_train)

    p = sub.add_parser("evaluate", parents=[data], help="evaluate a saved model on a dataset")
    p.add_argument("--model", required=True)
    p.add_argument("--positive", type=int, dest="positive_class")
    p.add_argument("--roc")
    p.set_defaults(handler=cmd_evaluate)

    p = sub.add_parser("mine", parents=[data], help="dissolve features and mine victim rules")
    p.add_argument("--features")
    p.add_argument("--min-support", type=float, dest="apriori.min_support")
    p.add_argument("--min-confidence", type=float, dest="apriori.min_confidence")
    p.add_argument("--max-rules", type=int, dest="apriori.max_rules")
    p.set_defaults(handler=cmd_mine)

    p = sub.add_parser("pipeline", help="run every stage and emit the report file set")
    p.add_argument("--config", required=True)
    p.add_argument("--seed", type=int)
    p.set_defaults(handler=cmd_pipeline)

    for p in sub.choices.values():
        p.add_argument("--out", required=True)
    return parser


def main(argv=None) -> int:
    args = build_parser().parse_args(argv)
    try:
        return args.handler(args, _settings(args))
    except ConfigError as exc:
        print(f"config error: {exc}", file=sys.stderr)
        return 2
    except StageError as exc:
        print(f"error: {exc}", file=sys.stderr)
        if isinstance(exc.cause, ConfigError):
            return 2
        return 3 if isinstance(exc.cause, (DataError, OSError)) else 4
    except DataError as exc:
        print(f"data error: {exc}", file=sys.stderr)
        return 3
    except OSError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 4


if __name__ == "__main__":
    sys.exit(main())

"""Command-line interface.

Subcommands mirror the pipeline stages (generate, augment, rank, eliminate,
train, evaluate, mine) plus `pipeline`, which runs everything and emits the
report file set. Each stage subcommand loads its files and calls the same
stage function that ``run_pipeline`` calls (``smote_n`` on
``resolve_targets``, ``survivors`` and ``eliminate``, ``validate``,
``mine``), so chaining the individual subcommands with the same seeds
reproduces the pipeline's outputs.

Every setting flag is a config key: a subcommand's settings are one
``PipelineConfig``, parsed by ``config_from_dict`` from its ``--config``
document (or an empty one) with the flags it was given set by ``set_key``.

Exit codes: 0 success, 2 configuration error, 3 data error, 4 stage failure;
a failed stage exits by its cause. A value that cannot be used is reported
where it is read, as a configuration error; so is a config, features,
schema or model file that cannot be read. A dataset that ``load_dataset``
cannot read, an empty one to train on or mine, or an output that cannot be
written is a data error, in every subcommand and in ``pipeline``.
"""

from __future__ import annotations

import argparse
import json
import sys
from dataclasses import replace

from . import classifiers
from .chisq import rank_features
from .dataset import load_dataset, split_dataset, write_csv
from .elimination import metrics_doc, validate
from .errors import ConfigError, DataError, RiskminerError, StageError
from .files import read_json, write_text
from .generate import generate_synthetic
from .pipeline import (
    CONFIG_FIELDS,
    PipelineConfig,
    config_from_dict,
    eliminate,
    elimination_csv,
    emit_report,
    mine,
    ranking_csv,
    roc_csv,
    rules_csv,
    run_pipeline,
    set_key,
    survivors,
)
from .schema import default_factor_map
from .smote import resolve_targets, smote_n

# the keys a flag can set: a flag's dest names its config key
CONFIG_KEYS = {key for key, _, _ in CONFIG_FIELDS} | {"schema", "learners"}


def _settings(args) -> PipelineConfig:
    """The ``--config`` document, or an empty one, with the config-key flags laid over it."""
    doc = read_json(args.config, "config") if "config" in vars(args) else {}
    for key, value in vars(args).items():
        if key in CONFIG_KEYS and value is not None:
            set_key(doc, key, value)
    return config_from_dict(doc)


def _names(text: str) -> list[str]:
    return [n.strip() for n in text.split(",")]


def _known_features(names, schema) -> list[str]:
    if not isinstance(names, list) or not names or any(n not in schema for n in names) or len(set(names)) < len(names):
        raise ConfigError(f"features must be distinct schema feature names, got {names!r}")
    return names


# -- subcommand handlers ---------------------------------------------------

def cmd_generate(args, cfg: PipelineConfig) -> int:
    if cfg.generator is None:
        raise ConfigError("config has no 'generator' section")
    # --seed outranks the generator's own seed as it does the top-level one
    ds = generate_synthetic(cfg.generator if args.seed is None else replace(cfg.generator, seed=args.seed))
    write_csv(ds, args.out)
    print(f"wrote {len(ds)} records to {args.out}")
    return 0


def cmd_augment(args, cfg: PipelineConfig) -> int:
    ds = load_dataset(cfg.input_path, cfg.schema)
    out = smote_n(ds, resolve_targets(ds, cfg.smote_balance, cfg.smote_target_total), cfg.smote_k, cfg.seed)
    write_csv(out, args.out)
    print(f"wrote {len(out)} records ({len(out) - len(ds)} synthetic) to {args.out}")
    return 0


def cmd_rank(args, cfg: PipelineConfig) -> int:
    ranking = rank_features(load_dataset(cfg.input_path, cfg.schema), cfg.alpha)
    write_text(args.out, ranking_csv(ranking))
    kept = sum(1 for _, _, keep in ranking if keep)
    print(f"ranked {len(ranking)} features, kept {kept} at alpha={cfg.alpha}")
    return 0


def cmd_eliminate(args, cfg: PipelineConfig) -> int:
    ds = load_dataset(cfg.input_path, cfg.schema)
    splits = split_dataset(ds, cfg.ratios, cfg.seed, stratified=cfg.stratified)
    kept = survivors(rank_features(ds, cfg.alpha), cfg.schema)
    rows, steps, (chosen, _) = eliminate(splits, cfg.learners, cfg.min_size, kept, cfg.positive_class)
    write_text(args.out, elimination_csv(rows, [spec.kind for spec in cfg.learners]))
    if args.selection:
        write_text(args.selection, json.dumps({"final_selection": list(chosen.features)}, indent=2) + "\n")
    print(f"eliminated down to {len(steps[-1].features)} features; selected {len(chosen.features)}")
    return 0


def cmd_train(args, cfg: PipelineConfig) -> int:
    ds = load_dataset(cfg.input_path, cfg.schema)
    if args.features_file is not None:
        features = _known_features(read_json(args.features_file, "features file").get("final_selection"), cfg.schema)
    elif args.features is not None:
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
    ds = load_dataset(cfg.input_path, cfg.schema)
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
    ds = load_dataset(cfg.input_path, cfg.schema)
    if args.features is None:
        features = cfg.schema.feature_names
    else:  # a named feature must have factors to mine
        features = _known_features(_names(args.features), cfg.schema)
        cataloged = {e.feature for e in default_factor_map().entries}
        if missing := [n for n in features if n not in cataloged]:
            raise ConfigError(f"features have no factor-catalog entry: {missing!r}")
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
    chosen = p.add_mutually_exclusive_group()
    chosen.add_argument("--features")
    chosen.add_argument("--features-file", dest="features_file")
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
    except (RiskminerError, OSError) as exc:
        kind = ("config error" if isinstance(exc, ConfigError)
                else "data error" if isinstance(exc, DataError) else "error")
        print(f"{kind}: {exc}", file=sys.stderr)
        cause = exc.cause if isinstance(exc, StageError) else exc  # a failed stage exits by its cause
        return 2 if isinstance(cause, ConfigError) else 3 if isinstance(cause, (DataError, OSError)) else 4


if __name__ == "__main__":
    sys.exit(main())

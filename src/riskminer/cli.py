"""Command-line interface.

Subcommands mirror the pipeline stages (generate, augment, rank, eliminate,
train, evaluate, mine) plus `pipeline`, which runs everything and emits the
report file set. Each stage subcommand loads its files and calls the same
stage function that ``run_pipeline`` calls (``augment``, ``survivors`` and
``eliminate``, ``validate``, ``mine``), so chaining the individual
subcommands with the same seeds reproduces the pipeline's outputs.

Exit codes: 0 success, 2 configuration error, 3 data error, 4 stage failure.
A value that cannot be used is reported where it is read, as a
configuration error.
"""

from __future__ import annotations

import argparse
import json
import os
import sys

from . import classifiers
from .chisq import rank_features
from .dataset import load_dataset, split_dataset, write_csv
from .errors import ConfigError, DataError, StageError
from .generate import generate_synthetic
from .pipeline import (
    augment,
    config_from_dict,
    default_learners,
    eliminate,
    elimination_csv,
    emit_report,
    genspec_from_dict,
    metrics_doc,
    mine,
    parse_ratios,
    ranking_csv,
    roc_csv,
    rules_csv,
    run_pipeline,
    survivors,
    validate,
)
from .schema import default_schema, load_schema

ENV_SEED = "RISKMINER_SEED"


def _resolve_seed(cli_seed: int | None, config_seed: int | None = None, default: int = 42) -> int:
    if cli_seed is not None:
        return cli_seed
    if config_seed is not None:
        return config_seed
    env = os.environ.get(ENV_SEED)
    if env is not None:
        try:
            return int(env)
        except ValueError:
            raise ConfigError(f"{ENV_SEED} must be an integer, got {env!r}") from None
    return default


def _schema_arg(path: str | None):
    return load_schema(path) if path else default_schema()


def _load_input(path: str, schema):
    try:
        return load_dataset(path, schema)
    except OSError as exc:
        raise DataError(f"cannot read dataset {path}: {exc}") from exc


def _load_config(path: str) -> dict:
    try:
        with open(path, encoding="utf-8") as fh:
            doc = json.load(fh)
    except OSError as exc:
        raise ConfigError(f"cannot read config {path}: {exc}") from exc
    except json.JSONDecodeError as exc:
        raise ConfigError(f"config {path} is not valid JSON: {exc}") from exc
    if not isinstance(doc, dict):
        raise ConfigError(f"config {path} is not a JSON object")
    return doc


def _names(text: str) -> list[str]:
    return [n.strip() for n in text.split(",")]


def _known_features(names, schema) -> list[str]:
    if not isinstance(names, list) or not names or any(n not in schema for n in names):
        raise ConfigError(f"features must be schema feature names, got {names!r}")
    return names


def _write_text(path: str, text: str) -> None:
    with open(path, "w", encoding="utf-8", newline="") as fh:
        fh.write(text)


def _write_json(path: str, doc: dict) -> None:
    _write_text(path, json.dumps(doc, sort_keys=True, indent=2) + "\n")


# -- subcommand handlers ---------------------------------------------------

def cmd_generate(args) -> int:
    doc = _load_config(args.config)
    if not doc.get("generator"):
        raise ConfigError("config has no 'generator' section")
    schema = _schema_arg(doc.get("schema"))
    seed = _resolve_seed(args.seed, doc.get("seed"))
    spec = genspec_from_dict(doc["generator"], schema, default_seed=seed)
    ds = generate_synthetic(spec)
    write_csv(ds, args.out)
    print(f"wrote {len(ds)} records to {args.out}")
    return 0


def cmd_augment(args) -> int:
    ds = _load_input(args.input, _schema_arg(args.schema))
    out = augment(ds, args.balance, args.target_total, args.k, _resolve_seed(args.seed))
    write_csv(out, args.out)
    print(f"wrote {len(out)} records ({len(out) - len(ds)} synthetic) to {args.out}")
    return 0


def cmd_rank(args) -> int:
    ds = _load_input(args.input, _schema_arg(args.schema))
    ranking = rank_features(ds, args.alpha)
    _write_text(args.out, ranking_csv(ranking))
    kept = sum(1 for _, _, keep in ranking if keep)
    print(f"ranked {len(ranking)} features, kept {kept} at alpha={args.alpha}")
    return 0


def cmd_eliminate(args) -> int:
    schema = _schema_arg(args.schema)
    ds = _load_input(args.input, schema)
    seed = _resolve_seed(args.seed)
    splits = split_dataset(ds, parse_ratios(args.ratios), seed, stratified=not args.no_stratify)
    learners = default_learners(kinds=_names(args.learners) if args.learners else classifiers.KINDS)
    kept = survivors(rank_features(ds, args.alpha), schema)
    rows, steps, (chosen, _) = eliminate(splits, learners, args.min_size, kept, args.positive)
    _write_text(args.out, elimination_csv(rows, [spec.kind for spec in learners]))
    if args.selection:
        _write_json(args.selection, {"final_selection": list(chosen.features)})
    print(f"eliminated down to {len(steps[-1].features)} features; selected {len(chosen.features)}")
    return 0


def cmd_train(args) -> int:
    schema = _schema_arg(args.schema)
    ds = _load_input(args.input, schema)
    if args.features_file:
        features = _known_features(_load_config(args.features_file).get("final_selection"), schema)
    elif args.features:
        features = _known_features(_names(args.features), schema)
    else:
        features = list(schema.feature_names)
    spec = classifiers.ClassifierSpec(args.learner, {} if args.seed is None else {"seed": args.seed})
    model = classifiers.train(spec, ds, features)
    classifiers.save_model(model, args.out)
    notice = f" ({'; '.join(model.warnings)})" if model.warnings else ""
    print(f"trained {args.learner} on {len(features)} features -> {args.out}{notice}")
    return 0


def cmd_evaluate(args) -> int:
    model = classifiers.load_model(args.model)
    ds = _load_input(args.input, _schema_arg(args.schema))
    _known_features(list(model.features), ds.schema)
    entry = validate(model, ds, args.positive)
    cm = entry["confusion"]
    _write_json(args.out, {
        "model": model.kind,
        "positive": args.positive,
        "confusion": {"tp": cm.tp, "fn": cm.fn, "fp": cm.fp, "tn": cm.tn},
        **metrics_doc(entry),
    })
    if args.roc:
        _write_text(args.roc, roc_csv(entry["curve"]))
    report = entry["metrics"]
    print(f"accuracy {100 * report.accuracy:.2f}%, weighted f1 {report.weighted_f1:.2f}, "
          f"auc {entry['auc']:.2f}")
    return 0


def cmd_mine(args) -> int:
    schema = _schema_arg(args.schema)
    ds = _load_input(args.input, schema)
    features = _known_features(_names(args.features), schema) if args.features else schema.feature_names
    rules, descriptions, n_transactions = mine(
        ds, features, args.min_support, args.min_confidence, args.max_rules
    )
    _write_text(args.out, rules_csv(rules, descriptions))
    print(f"mined {len(rules)} victim rules from {n_transactions} transactions")
    return 0


def cmd_pipeline(args) -> int:
    doc = _load_config(args.config)
    seed = _resolve_seed(args.seed, doc.get("seed"))
    if args.alpha is not None:
        doc["alpha"] = args.alpha
    if args.learners is not None:
        doc["learners"] = _names(args.learners)
    apriori_doc = doc.setdefault("apriori", {})
    if args.min_support is not None:
        apriori_doc["min_support"] = args.min_support
    if args.min_confidence is not None:
        apriori_doc["min_confidence"] = args.min_confidence
    cfg = config_from_dict(doc, seed_override=seed)
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
    p.add_argument("--k", type=int, default=5)
    p.add_argument("--target-total", type=int, dest="target_total")
    p.add_argument("--balance", action=argparse.BooleanOptionalAction, default=True)
    p.add_argument("--seed", type=int)
    p.set_defaults(handler=cmd_augment)

    p = sub.add_parser("rank", parents=[data], help="chi-squared feature ranking")
    p.add_argument("--alpha", type=float, default=0.05)
    p.set_defaults(handler=cmd_rank)

    p = sub.add_parser("eliminate", parents=[data], help="backward elimination over the significant features")
    p.add_argument("--alpha", type=float, default=0.05)
    p.add_argument("--ratios", default="0.75,0.175,0.075")
    p.add_argument("--no-stratify", action="store_true")
    p.add_argument("--seed", type=int)
    p.add_argument("--learners")
    p.add_argument("--min-size", type=int, default=19, dest="min_size")
    p.add_argument("--positive", type=int, default=0, choices=(0, 1))
    p.add_argument("--selection")
    p.set_defaults(handler=cmd_eliminate)

    p = sub.add_parser("train", parents=[data], help="train one classifier")
    p.add_argument("--learner", required=True, choices=classifiers.KINDS)
    p.add_argument("--features")
    p.add_argument("--features-file", dest="features_file")
    p.add_argument("--seed", type=int)
    p.set_defaults(handler=cmd_train)

    p = sub.add_parser("evaluate", parents=[data], help="evaluate a saved model on a dataset")
    p.add_argument("--model", required=True)
    p.add_argument("--positive", type=int, default=0, choices=(0, 1))
    p.add_argument("--roc")
    p.set_defaults(handler=cmd_evaluate)

    p = sub.add_parser("mine", parents=[data], help="dissolve features and mine victim rules")
    p.add_argument("--features")
    p.add_argument("--min-support", type=float, default=0.25, dest="min_support")
    p.add_argument("--min-confidence", type=float, default=0.8, dest="min_confidence")
    p.add_argument("--max-rules", type=int, default=10_000, dest="max_rules")
    p.set_defaults(handler=cmd_mine)

    p = sub.add_parser("pipeline", help="run every stage and emit the report file set")
    p.add_argument("--config", required=True)
    p.add_argument("--seed", type=int)
    p.add_argument("--alpha", type=float)
    p.add_argument("--learners")
    p.add_argument("--min-support", type=float, dest="min_support")
    p.add_argument("--min-confidence", type=float, dest="min_confidence")
    p.set_defaults(handler=cmd_pipeline)

    for p in sub.choices.values():
        p.add_argument("--out", required=True)
    return parser


def main(argv=None) -> int:
    parser = build_parser()
    args = parser.parse_args(argv)
    try:
        return args.handler(args)
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

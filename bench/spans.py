"""Span tracing for one riskminer CLI process, and the per-layer metrics
derived from the spans.

Run as a script, this module stands in for ``python -m riskminer.cli``:

    python bench/spans.py SPANS.json <riskminer subcommand and arguments>

It imports the CLI, wraps the layer-boundary functions listed in ``LAYERS``
and runs the subcommand. Each wrapper records one span (name, start, end,
parent, attributes) in memory; the spans are written to SPANS.json when the
subcommand returns. Nothing under ``src/`` changes: a function is wrapped by
rebinding every ``riskminer.*`` module attribute that holds it, so the
``from .x import f`` copies in other modules (``train`` in ``pipeline`` and
``elimination``, ``apriori`` imported as ``mine_apriori``) and the calls a
module makes to its own globals (``smote_n`` to ``knn_categorical``) all go
through the wrapper.

``layer_metrics`` turns the spans of one or more traced processes into the
per-layer metrics that ``bench/run.py --trace 1`` reports.
"""

from __future__ import annotations

import functools
import json
import statistics
import sys
import time

KINDS = ("RF", "DT", "LR", "SVC", "GB", "GNB")

# (module, function) -> span name. Span names start with the module they
# measure; classifier spans get the learner kind appended at record time.
LAYERS = {
    ("riskminer.dataset", "load_dataset"): "dataset.load",
    ("riskminer.dataset", "write_csv"): "dataset.write",
    ("riskminer.dataset", "split_dataset"): "dataset.split",
    ("riskminer.generate", "generate_synthetic"): "generate.synth",
    ("riskminer.smote", "smote_n"): "smote.augment",
    ("riskminer.smote", "knn_categorical"): "smote.knn",
    ("riskminer.chisq", "rank_features"): "chisq.rank",
    ("riskminer.classifiers", "train"): "classifiers.fit",
    ("riskminer.classifiers", "score_rows"): "classifiers.score",
    ("riskminer.elimination", "backward_eliminate"): "elimination.eliminate",
    ("riskminer.elimination", "evaluate_learners"): "elimination.evaluate",
    ("riskminer.metrics", "confusion"): "metrics.confusion",
    ("riskminer.metrics", "classification_metrics"): "metrics.classification",
    ("riskminer.metrics", "roc_points"): "metrics.roc_points",
    ("riskminer.metrics", "auc"): "metrics.auc",
    ("riskminer.metrics", "roc_auc"): "metrics.roc_auc",
    ("riskminer.mining", "dissolve_dataset"): "mining.dissolve",
    ("riskminer.mining", "apriori"): "mining.apriori",
    ("riskminer.mining", "derive_rules"): "mining.rules",
    ("riskminer.pipeline", "run_pipeline"): "pipeline.run_pipeline",
    ("riskminer.pipeline", "emit_report"): "pipeline.emit",
}


class Tracer:
    """Records nested spans; span i is ``[name, start, end, parent, attrs]``
    with ``parent`` the index of the enclosing span or -1."""

    def __init__(self):
        self.spans: list[list] = []
        self._stack: list[int] = []
        # id -> (Dataset, content hash); holding the Dataset keeps its id unique
        self._train_sets: dict[int, tuple[object, int]] = {}

    def wrap(self, name: str, fn):
        @functools.wraps(fn)
        def traced(*args, **kwargs):
            index = len(self.spans)
            parent = self._stack[-1] if self._stack else -1
            span = [name, time.perf_counter(), None, parent, {}]
            self.spans.append(span)
            self._stack.append(index)
            try:
                result = fn(*args, **kwargs)
            finally:
                span[2] = time.perf_counter()
                self._stack.pop()
            self._annotate(span, args, result)
            return result

        return traced

    def install(self) -> None:
        """Rebind every loaded ``riskminer.*`` reference to a LAYERS function."""
        modules = {n: m for n, m in sys.modules.items() if n == "riskminer" or n.startswith("riskminer.")}
        for (module_name, attr), name in LAYERS.items():
            original = getattr(modules[module_name], attr)
            wrapped = self.wrap(name, original)
            for module in modules.values():
                for key, value in list(vars(module).items()):
                    if value is original:
                        setattr(module, key, wrapped)

    def _train_key(self, ds) -> int:
        """Content hash of a training set, computed once per Dataset object:
        every fit of a run trains on one of a few split objects."""
        entry = self._train_sets.get(id(ds))
        if entry is None:
            entry = self._train_sets[id(ds)] = (ds, hash((ds.records, ds.labels)))
        return entry[1]

    def _annotate(self, span: list, args, result) -> None:
        """Attach the attributes the per-layer metrics need, after the call."""
        name, attrs = span[0], span[4]
        if name == "classifiers.fit":
            spec, ds = args[0], args[1]
            features = tuple(args[2]) if len(args) > 2 and args[2] is not None else result.features
            span[0] = f"classifiers.fit.{spec.kind}"
            attrs["key"] = repr((spec.kind, sorted(result.hyperparameters.items()), features,
                                 self._train_key(ds)))
            attrs["warned"] = bool(result.warnings)
            objective_path = getattr(result.impl, "objective_path", None)
            if objective_path is not None:
                attrs["iterations"] = len(objective_path) - 1
        elif name == "classifiers.score":
            span[0] = f"classifiers.score.{args[0].kind}"
        elif name == "smote.augment":
            attrs["rows_added"] = len(result) - len(args[0])
        elif name == "mining.apriori":
            attrs["itemsets"] = len(result)
        elif name == "mining.rules":
            attrs["rules"] = len(result)


# -- per-layer metrics ---------------------------------------------------------

def _rows(spans: list[list]) -> list[tuple[str, float, float, tuple[str, ...], dict]]:
    """(name, duration, self time, ancestor names nearest first, attrs) for
    every span of one process."""
    child_time = [0.0] * len(spans)
    for _, start, end, parent, _ in spans:
        if parent >= 0:
            child_time[parent] += end - start
    out = []
    for i, (name, start, end, parent, attrs) in enumerate(spans):
        ancestors = []
        while parent >= 0:
            ancestors.append(spans[parent][0])
            parent = spans[parent][3]
        out.append((name, end - start, end - start - child_time[i], tuple(ancestors), attrs))
    return out


def _ratio(num: float, den: float) -> float:
    return num / den if den else 0.0


TIMED = (
    # metric stem, span-name prefix
    ("dataset.load", "dataset.load"),
    ("dataset.write", "dataset.write"),
    ("dataset.split", "dataset.split"),
    ("generate.synth", "generate.synth"),
    ("smote.augment", "smote.augment"),
    ("smote.knn", "smote.knn"),
    ("chisq.rank", "chisq.rank"),
    ("elimination.eliminate", "elimination.eliminate"),
    ("elimination.evaluate", "elimination.evaluate"),
    ("metrics.validate", "metrics."),
    ("mining.dissolve", "mining.dissolve"),
    ("mining.apriori", "mining.apriori"),
    ("mining.rules", "mining.rules"),
    ("pipeline.run_pipeline", "pipeline.run_pipeline"),
    ("pipeline.emit", "pipeline.emit"),
)


def layer_metrics(processes: list[list[list]]) -> dict[str, float]:
    """Per-layer metrics over the spans of every traced process of one run.

    A ``*_s`` metric sums the durations of the spans whose name starts with
    the prefix, leaving out spans nested inside another such span, so no
    interval counts twice. ``*_self_s`` sums the same spans' self times: the
    duration minus the time covered by direct child spans. A ratio or rate
    whose base is zero (the layer did no work in this workload) reads 0.
    """
    rows = [row for spans in processes for row in _rows(spans)]

    def spans_of(prefix: str):
        return [r for r in rows if r[0].startswith(prefix)]

    def total(prefix: str) -> float:
        return sum(d for _, d, _, anc, _ in spans_of(prefix) if not any(a.startswith(prefix) for a in anc))

    def self_time(prefix: str) -> float:
        return sum(s for _, _, s, _, _ in spans_of(prefix))

    m: dict[str, float] = {}
    for stem, prefix in TIMED:
        m[f"{stem}_s"] = total(prefix)
        m[f"{stem}_self_s"] = self_time(prefix)

    m["dataset.load_calls"] = len(spans_of("dataset.load"))
    m["smote.rows_added"] = sum(a.get("rows_added", 0) for *_, a in spans_of("smote.augment"))
    m["smote.rows_per_s"] = _ratio(m["smote.rows_added"], m["smote.augment_s"])
    m["smote.knn_queries"] = sum(1 for _, _, _, anc, _ in spans_of("smote.knn") if anc[:1] == ("smote.augment",))

    fits = spans_of("classifiers.fit.")
    for kind in KINDS:
        m[f"classifiers.fit_s.{kind}"] = total(f"classifiers.fit.{kind}")
        m[f"classifiers.fit_self_s.{kind}"] = self_time(f"classifiers.fit.{kind}")
        m[f"classifiers.fits.{kind}"] = len(spans_of(f"classifiers.fit.{kind}"))
        m[f"classifiers.score_s.{kind}"] = total(f"classifiers.score.{kind}")
        m[f"classifiers.score_self_s.{kind}"] = self_time(f"classifiers.score.{kind}")
    for kind in ("LR", "SVC"):
        warned = [a.get("warned") for n, *_, a in fits if n == f"classifiers.fit.{kind}"]
        m[f"classifiers.{kind.lower()}_converged_ratio"] = _ratio(warned.count(False), len(warned))
    iterations = [a["iterations"] for n, *_, a in fits if n == "classifiers.fit.LR" and "iterations" in a]
    m["classifiers.lr_iterations_p50"] = statistics.median(iterations) if iterations else 0

    seen: set[str] = set()
    duplicates = 0
    for *_, attrs in fits:
        duplicates += attrs.get("key") in seen
        seen.add(attrs.get("key"))
    eliminations = len(spans_of("elimination.eliminate"))
    evaluated = sum(1 for _, _, _, anc, _ in spans_of("elimination.evaluate") if "elimination.eliminate" in anc)
    fits_in_elimination = sum(1 for _, _, _, anc, _ in fits if "elimination.eliminate" in anc)
    # backward_eliminate evaluates its starting set once, then the candidates
    m["elimination.candidate_sets"] = evaluated - eliminations
    m["elimination.fits_per_s"] = _ratio(fits_in_elimination, m["elimination.eliminate_s"])
    m["elimination.duplicate_fits"] = duplicates
    m["elimination.useful_fit_ratio"] = _ratio(len(fits) - duplicates, len(fits))
    m["mining.itemsets"] = sum(a.get("itemsets", 0) for *_, a in spans_of("mining.apriori"))
    m["mining.rules"] = sum(a.get("rules", 0) for *_, a in spans_of("mining.rules"))
    m["run.spans"] = len(rows)
    return m


def main(argv: list[str]) -> int:
    if len(argv) < 2:
        print("usage: spans.py SPANS.json <riskminer subcommand> [args...]", file=sys.stderr)
        return 2
    from riskminer import cli

    tracer = Tracer()
    tracer.install()
    try:
        return cli.main(argv[1:])
    finally:
        with open(argv[0], "w", encoding="utf-8") as fh:
            json.dump(tracer.spans, fh)


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))

"""The functions that the benchmark's span tracer wraps exist in riskminer.

``bench/spans.py`` measures a run by rebinding the riskminer functions named
in its ``LAYERS`` table. A function renamed or moved would silently drop its
spans, so every entry must resolve to a callable module attribute. A fit
made in a pool worker, out of the tracer's sight, would drop its spans too,
so a traced pipeline must record the fits of every learner.
"""

from __future__ import annotations

import importlib
import importlib.util
import json
import os
import subprocess
import sys
from pathlib import Path

import riskminer
from test_pipeline import small_config_doc

SPANS = Path(__file__).resolve().parents[1] / "bench" / "spans.py"


def _spans():
    spec = importlib.util.spec_from_file_location("bench_spans", SPANS)
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


def _layers() -> dict:
    return _spans().LAYERS


def test_every_traced_function_is_a_riskminer_callable():
    layers = _layers()
    assert layers
    missing = [
        (module, attr) for module, attr in layers
        if not callable(getattr(importlib.import_module(module), attr, None))
    ]
    assert missing == []


def test_a_traced_pipeline_records_the_fits_of_every_learner(tmp_path):
    # GB's lockstep fits go through train_many, which the tracer does not wrap; the other kinds'
    # fits are one span each
    kinds = ["RF", "DT", "LR", "SVC", "GB", "GNB"]
    config, trace = tmp_path / "config.json", tmp_path / "spans.json"
    config.write_text(json.dumps({**small_config_doc(), "learners": kinds}), encoding="utf-8")
    src = os.path.dirname(os.path.dirname(riskminer.__file__))
    subprocess.run([sys.executable, str(SPANS), str(trace), "pipeline", "--config", str(config),
                    "--out", str(tmp_path / "out")], check=True, capture_output=True,
                   env={**os.environ, "PYTHONPATH": src})
    metrics = _spans().layer_metrics([json.loads(trace.read_text(encoding="utf-8"))])
    fits = {kind: metrics[f"classifiers.fits.{kind}"] for kind in kinds}
    assert min(fits.values()) >= 1, fits
    assert len({fits[kind] for kind in kinds if kind != "GB"}) == 1, fits

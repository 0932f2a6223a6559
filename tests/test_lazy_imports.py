"""What a fresh interpreter loads: ``import riskminer`` resolves its exports
and submodules on first use, the schema and the factor catalog load without
numpy, and the compute modules import everything a pool worker runs, so no
worker forked after them imports a module of its own."""

from __future__ import annotations

import json
import os
import subprocess
import sys

import pytest

import riskminer

SRC = os.path.dirname(os.path.dirname(riskminer.__file__))


def _fresh(code: str):
    """What *code*, run in a new interpreter, prints as JSON."""
    out = subprocess.run([sys.executable, "-c", code], capture_output=True, text=True, check=True,
                         env={**os.environ, "PYTHONPATH": SRC})
    return json.loads(out.stdout)


@pytest.mark.parametrize("statement", [
    "import riskminer; riskminer.default_schema(); riskminer.default_factor_map()",
    "import riskminer.schema, riskminer.errors, riskminer.files",
])
def test_the_schema_and_the_factor_catalog_load_without_numpy(statement):
    loaded = _fresh(f"import json, sys; {statement}; print(json.dumps(sorted(sys.modules)))")
    assert "numpy" not in loaded
    assert {"riskminer.dataset", "riskminer.mining", "riskminer.classifiers"}.isdisjoint(loaded)


def test_a_just_imported_package_resolves_every_export_and_submodule():
    code = """
import importlib, json, pkgutil, sys
import riskminer
exports = {}
for name in riskminer.__all__:
    value = getattr(riskminer, name)
    exports[name] = getattr(sys.modules[value.__module__], name) is value
submodules = sorted(m.name for m in pkgutil.iter_modules(riskminer.__path__))
resolved = {name: getattr(riskminer, name) is importlib.import_module(f"riskminer.{name}") for name in submodules}
print(json.dumps({"exports": exports, "submodules": resolved, "dir": dir(riskminer), "all": riskminer.__all__,
                  "unknown": [hasattr(riskminer, name) for name in ("nosuch", "", "__wrapped__", "_EXPORTS_")]}))
"""
    found = _fresh(code)
    assert found["exports"] and all(found["exports"].values()), found["exports"]
    assert {"errors", "classifiers", "pipeline", "cli", "files"} <= set(found["submodules"])
    assert all(found["submodules"].values()), found["submodules"]
    assert set(found["all"]) <= set(found["dir"])
    assert found["unknown"] == [False] * 4


def test_training_and_validating_every_kind_imports_no_further_riskminer_module():
    code = """
import json, sys
import riskminer.elimination
from riskminer.classifiers import KINDS, ClassifierSpec, train, train_many
from riskminer.dataset import split_dataset
from riskminer.elimination import validate
from riskminer.generate import GenSpec, PlantedFactor, generate_synthetic
ds = generate_synthetic(GenSpec(n_records=120, seed=3, planted_factors=(PlantedFactor("weak-password", 1, 0.9),)))
splits = split_dataset(ds, (0.7, 0.15, 0.15), 5)
before = set(sys.modules)
sets = [ds.schema.feature_names[:4], ds.schema.feature_names[1:5]]
for kind in KINDS:
    spec = ClassifierSpec(kind)
    for model in [train(spec, splits.train, sets[0]), *train_many(spec, splits.train, sets)]:
        validate(model, splits.test, 1)
print(json.dumps(sorted(m for m in set(sys.modules) - before if m.split(".")[0] == "riskminer")))
"""
    assert _fresh(code) == []

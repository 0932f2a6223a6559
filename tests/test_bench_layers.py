"""The functions that the benchmark's span tracer wraps exist in riskminer.

``bench/spans.py`` measures a run by rebinding the riskminer functions named
in its ``LAYERS`` table. A function renamed or moved would silently drop its
spans, so every entry must resolve to a callable module attribute.
"""

from __future__ import annotations

import importlib
import importlib.util
from pathlib import Path

SPANS = Path(__file__).resolve().parents[1] / "bench" / "spans.py"


def _layers() -> dict:
    spec = importlib.util.spec_from_file_location("bench_spans", SPANS)
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module.LAYERS


def test_every_traced_function_is_a_riskminer_callable():
    layers = _layers()
    assert layers
    missing = [
        (module, attr) for module, attr in layers
        if not callable(getattr(importlib.import_module(module), attr, None))
    ]
    assert missing == []

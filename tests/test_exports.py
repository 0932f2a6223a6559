"""Every name that a riskminer package exports resolves, so a deleted
definition cannot leave a stale export behind."""

from __future__ import annotations

import importlib

import pytest


@pytest.mark.parametrize("name", ["riskminer", "riskminer.classifiers"])
def test_star_import_binds_every_export(name):
    module = importlib.import_module(name)
    assert len(set(module.__all__)) == len(module.__all__)
    assert [export for export in module.__all__ if not hasattr(module, export)] == []
    namespace: dict = {}
    exec(f"from {name} import *", namespace)
    assert set(module.__all__) <= set(namespace)

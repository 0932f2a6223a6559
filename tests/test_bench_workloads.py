"""Every benchmark workload runs at its default seed and at the held-out
seed and passes its own output check.

``bench/workloads.py`` says how each workload makes its inputs, which CLI
steps one run executes and how its outputs are checked. A run whose outputs
fail that check is no benchmark result, so the checks must pass here first;
they also read dataset, mining and factor-map functions that the program
must keep.
"""

from __future__ import annotations

import importlib.util
import sys
from pathlib import Path

import pytest

import riskminer
from riskminer.cli import main

WORKLOADS = Path(__file__).resolve().parents[1] / "bench" / "workloads.py"


def _workloads():
    spec = importlib.util.spec_from_file_location("bench_workloads", WORKLOADS)
    module = importlib.util.module_from_spec(spec)
    sys.modules[spec.name] = module  # its dataclass looks its module up there
    spec.loader.exec_module(module)
    return module


BENCH = _workloads()
HELD_OUT_SEED = 1001  # the second seed the committed bench results are taken at


@pytest.mark.parametrize(
    "name, seed",
    [pytest.param(name, BENCH.DEFAULT_SEED, id=name) for name in BENCH.WORKLOADS]
    + [pytest.param(name, HELD_OUT_SEED, id=f"{name}-{HELD_OUT_SEED}") for name in BENCH.WORKLOADS],
)
def test_a_workload_run_passes_its_output_check(tmp_path, name, seed):
    workload = BENCH.WORKLOADS[name]
    inputs, out = tmp_path / "inputs", tmp_path / "out"
    inputs.mkdir()
    out.mkdir()

    def generate(step):
        assert main(step) == 0

    workload.prepare(seed, str(inputs), generate)
    for step in workload.steps(str(inputs), str(out)):
        assert main(step) == 0, step
    assert workload.check(riskminer, str(inputs), str(out)) == []

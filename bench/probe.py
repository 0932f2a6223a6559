"""Speed probe: times a fixed piece of work that does not use riskminer.

    python bench/probe.py CHUNKS

Prints the wall time of each of CHUNKS chunks of the work, as a JSON list.

The machine this benchmark was built on is a shared VM. Other tenants slow
every process on it by up to about 1.7x, in stretches of seconds to minutes,
so a set of runs can be 15-35 % slower than the set before it.
``bench/run.py`` runs a probe block before each workload run and one after
the last, and scales the invocation's timings by the mean chunk time, which
measures that slowdown around the runs. The probe runs on its own, between
runs: work running beside a run would slow it, and would itself be slowed
by whatever riskminer does, so that the scale would depend on the program
under test.

The work mixes what riskminer spends its time on: tuple and dict handling in
the interpreter (the data layer, Apriori), small matrix products (the
learners) and a pass over a 1 MB buffer.
"""

from __future__ import annotations

import json
import sys
import time

import numpy as np

_MATRIX = (np.arange(64 * 64).reshape(64, 64) % 17) / 17.0
_CODES = np.arange(1000 * 12).reshape(1000, 12) * 7919 % 5
_EQUAL = np.zeros((1000, 200, 5), dtype=bool)


def chunk() -> None:
    counts: dict[tuple[int, int], int] = {}
    for i in range(3000):
        key = (i % 97, i % 13)
        counts[key] = counts.get(key, 0) + i
    for _ in range(20):
        _MATRIX @ _MATRIX
    np.sort(_CODES, axis=0)
    np.equal(_CODES[:, None, :5], _CODES[None, :200, :5], out=_EQUAL)
    _EQUAL.sum()


def main(argv: list[str]) -> int:
    times = []
    for _ in range(int(argv[0])):
        start = time.perf_counter()
        chunk()
        times.append(time.perf_counter() - start)
    print(json.dumps(times))
    return 0


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))

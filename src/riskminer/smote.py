"""Categorical SMOTE: ``smote_n`` grows a dataset to the per-class targets
that ``resolve_targets`` derives from the ``smote`` settings.

Classic SMOTE interpolates real-valued vectors; survey answers are integer
codes, so this is the nominal variant (SMOTE-N, Chawla et al. 2002):
neighbours are found by Hamming distance and each synthetic attribute is
copied from either the seed record or one of its k same-class neighbours
with a fair coin. Synthetic values therefore always stay inside the legal
code set.

The neighbour search works on the code matrix in blocks of query rows. Each
block's distances to every record of the pool accumulate one feature at a
time into an int16 array, so no rows x pool x features temporary is made,
and the blocks are sized so that their temporaries stay near one megabyte
whatever the pool size. Ties break toward the lower position: the k nearest
are the k smallest keys ``distance * pool size + pool index``, taken with a
partition instead of a full sort, and the query's own column gets a key past
every real distance so it is never its own neighbour.

``smote_n`` keeps the draw order of one ``random.Random(seed)``: for each
class in ascending label order and each synthetic record, a seed member
(``randrange(class size)``), a neighbour slot (``randrange(k)``) and one
``random()`` coin per attribute. No draw depends on a neighbour, so all
draws come first and neighbours are computed once for each distinct seed.
"""

from __future__ import annotations

import random

import numpy as np

from .dataset import Dataset, apportion
from .errors import ClassTooSmallError, ConfigError, DataError, PoolTooSmallError, TargetBelowCurrentError

# Bytes a neighbour block may hold: int16 distances, a bool scratch, and the
# int64 keys with their partitioned copy, per query row and pool member.
_BLOCK_BYTES = 1 << 20
_BYTES_PER_CELL = 2 + 1 + 8 + 8


def check_k(k: int) -> None:
    if k < 1:
        raise ConfigError(f"k must be >= 1, got {k}")


def nearest_in_pool(matrix: np.ndarray, pool: np.ndarray, queries: np.ndarray, k: int) -> np.ndarray:
    """The k Hamming-nearest pool members of each query, as positions.

    *matrix* is the (records x features) code matrix, *pool* the ascending
    positions searched, and *queries* indices into *pool*; each query skips
    its own column. Row i of the result lists query i's neighbours nearest
    first, ties toward the lower position. Needs ``k < len(pool)``.
    """
    size = len(pool)
    columns = np.ascontiguousarray(matrix[pool].T)  # one row per feature
    width = len(columns)
    order = np.arange(size, dtype=np.int64)
    rows = max(1, _BLOCK_BYTES // (_BYTES_PER_CELL * size))
    dist = np.empty((rows, size), dtype=np.int16)
    differs = np.empty((rows, size), dtype=bool)
    out = np.empty((len(queries), k), dtype=np.int64)
    for start in range(0, len(queries), rows):
        block = queries[start:start + rows]
        b = len(block)
        dist[:b] = 0
        for codes in columns:
            np.not_equal(codes[block, None], codes, out=differs[:b])
            dist[:b] += differs[:b]
        keys = dist[:b].astype(np.int64)
        keys *= size
        keys += order
        keys[np.arange(b), block] = (width + 1) * size + block  # past every real distance
        nearest = np.partition(keys, k - 1, axis=1)[:, :k]
        nearest.sort(axis=1)
        out[start:start + b] = pool[nearest % size]
    return out


def knn_categorical(ds: Dataset, index: int, k: int) -> list[int]:
    """Positions of the k records of its class closest to ``ds.records[index]``
    by Hamming distance, excluding *index*; ties break toward the lower position."""
    index = range(len(ds))[index]
    pool = np.flatnonzero(ds.y == ds.y[index])
    if len(pool) - 1 < k:
        raise PoolTooSmallError(k, len(pool) - 1)
    column = np.searchsorted(pool, [index])
    return nearest_in_pool(ds.codes, pool, column, k)[0].tolist()


def smote_n(ds: Dataset, targets: dict, k: int, seed: int) -> Dataset:
    """Return *ds* with synthetic records appended until each class reaches
    its count in *targets* (label -> count). Original records come first,
    untouched. An empty *ds* is refused, even when nothing is to grow."""
    check_k(k)
    if len(ds) == 0:
        raise DataError("cannot augment an empty dataset")
    counts = ds.class_counts()
    grow: dict[int, int] = {}
    for label, target in sorted(targets.items()):
        current = counts.get(label, 0)
        if target < current:
            raise TargetBelowCurrentError(label, target, current)
        if target > current:
            if current < k + 1:
                raise ClassTooSmallError(label, current, k)
            grow[label] = target - current
    if not grow:
        return ds  # immutable, nothing to add

    rng = random.Random(seed)
    matrix = ds.codes
    width = matrix.shape[1]
    new_records: list[np.ndarray] = [matrix]
    new_labels: list[np.ndarray] = [ds.y]
    for label in sorted(grow):
        members = np.flatnonzero(ds.y == label)
        seeds, slots = [], []
        coins = np.empty((grow[label], width))
        for row in coins:
            seeds.append(rng.randrange(len(members)))
            slots.append(rng.randrange(k))
            row[:] = [rng.random() for _ in range(width)]
        distinct, seed_of = np.unique(seeds, return_inverse=True)
        neighbours = nearest_in_pool(matrix, members, distinct, k)
        seed_rows = matrix[members[seeds]]
        donor_rows = matrix[neighbours[seed_of, slots]]
        new_records.append(np.where(coins < 0.5, seed_rows, donor_rows))
        new_labels.append(np.full(grow[label], label))
    return Dataset(ds.schema, np.concatenate(new_records), np.concatenate(new_labels))


def resolve_targets(ds: Dataset, balance: bool, total: int | None) -> dict[int, int]:
    """Per-class targets for ``smote_n``. *balance* alone grows both classes
    to the majority size, and with *total* splits it evenly, the odd record
    to the victim class; *total* alone grows each class along its current
    share; with neither, nothing grows. A *total* below the row count, and an
    empty *ds*, are refused."""
    if len(ds) == 0:
        raise DataError("cannot augment an empty dataset")
    counts = ds.class_counts()
    if total is None:
        return dict.fromkeys((0, 1), max(counts.values())) if balance else counts
    if total < len(ds):
        raise TargetBelowCurrentError(None, total, len(ds))
    return {0: total // 2, 1: total - total // 2} if balance else apportion(counts, total)

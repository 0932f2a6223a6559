"""Encoded datasets: CSV ingestion, validation, and the three-way split.

A dataset is a read-only small-integer code matrix, one row per record and
one column per schema feature, plus a read-only vector of binary victim
labels. Every layer reads these arrays; ``records`` and ``labels``, tuple
views built on first use, are kept only because the benchmark reads them.
Validation is one vectorised pass: each column's codes are looked up in its
feature's legal set, and the first bad cell in row order (features left to
right, then the label) names the error, so every error names the row and
column that a cell-by-cell scan would.

The only ingest format is UTF-8 comma-separated text with a mandatory
header: the schema's feature names, in order, followed by the goal column.
Cells parse as ``int()`` parses them.
"""

from __future__ import annotations

import csv
import io
import random
from dataclasses import dataclass, field
from functools import cached_property
from itertools import chain

import numpy as np

from .errors import (
    DataError,
    EmptyClassError,
    HeaderMismatchError,
    IllegalValueError,
    MissingColumnError,
    RaggedRowError,
    RatioSumError,
)
from .files import write_text
from .schema import Schema


@dataclass(frozen=True, init=False, eq=False)
class Dataset:
    """Validated, immutable collection of records and labels.

    ``codes`` is the (records x features) code matrix, in the smallest
    integer type that holds every code of the schema (``uint8`` for the
    shipped one), and ``y`` the int64 label vector. *records* may be any
    rows, a matrix included; both arrays are private copies that cannot be
    written, so the dataset is safe for concurrent reads.
    """

    schema: Schema
    codes: np.ndarray = field(repr=False)
    y: np.ndarray = field(repr=False)

    def __init__(self, schema: Schema, records, labels):
        if len(records) != len(labels):
            raise DataError(f"{len(records)} records but {len(labels)} labels")
        width = len(schema.features)
        end = next((i for i, rec in enumerate(records) if len(rec) != width), len(records))
        codes, y = _cells(records[:end]).reshape(end, width), _cells(labels[:end]).reshape(end)
        legal = np.column_stack(
            [np.isin(codes[:, j], spec.values) for j, spec in enumerate(schema.features)] + [np.isin(y, (0, 1))]
        )
        if not legal.all():
            r, j = divmod(int(np.argmin(legal)), width + 1)
            name, value = (schema.goal_name, labels[r]) if j == width else (schema.features[j].name, records[r][j])
            raise IllegalValueError(r + 1, name, value.item() if isinstance(value, np.generic) else value)
        if end < len(records):
            raise RaggedRowError(end + 1, width, len(records[end]))
        codes, y = np.array(codes, dtype=_code_type(schema)), np.array(y, dtype=np.int64)
        codes.flags.writeable = y.flags.writeable = False
        self.__dict__.update(schema=schema, codes=codes, y=y)  # frozen: no __setattr__

    def __len__(self) -> int:
        return len(self.y)

    @cached_property
    def records(self) -> tuple[tuple[int, ...], ...]:
        return tuple(map(tuple, self.codes.tolist()))

    @cached_property
    def labels(self) -> tuple[int, ...]:
        return tuple(self.y.tolist())

    def class_counts(self) -> dict[int, int]:
        counts = np.bincount(self.y, minlength=2)
        return {0: int(counts[0]), 1: int(counts[1])}

    def subset(self, indices) -> "Dataset":
        rows = np.asarray(indices, dtype=np.intp)
        return Dataset(self.schema, self.codes[rows], self.y[rows])


def _code_type(schema: Schema) -> np.dtype:
    """The smallest integer type that holds every code of *schema*, and 0 and 1."""
    return np.result_type(np.uint8, *(np.min_scalar_type(v) for spec in schema.features for v in spec.values))


def _cells(values) -> np.ndarray:
    """*values* as an array, keeping the Python objects where numpy would
    convert them to another kind (strings, floats, ints past int64), so that
    each is checked as it was given."""
    cells = np.asarray(values)
    return cells if cells.dtype.kind in "biu" else np.array(values, dtype=object)


@dataclass(frozen=True)
class SplitBundle:
    """Train / test / validation partition of a dataset."""

    train: Dataset
    test: Dataset
    validation: Dataset


def _row_fault(r: int, row: list[str], names) -> DataError | None:
    """The error CSV data row *r* raises before its codes are checked: a
    wrong cell count, or the first cell that ``int()`` refuses."""
    if len(row) != len(names):
        return RaggedRowError(r, len(names), len(row))
    for name, cell in zip(names, row):
        try:
            int(cell)
        except ValueError:
            return IllegalValueError(r, name, cell)
    return None


def load_dataset(path, schema: Schema) -> Dataset:
    """Load and validate a CSV file against *schema*.

    The header must be the schema's feature names plus the goal column,
    exactly and in order. Cells must be integers within each feature's
    legal codes. Row order is preserved. Errors name the row and column
    that a row-by-row reader stops at.
    """
    expected = list(schema.feature_names) + [schema.goal_name]
    with open(path, newline="", encoding="utf-8") as fh:
        reader = csv.reader(fh)
        try:
            header = next(reader)
        except StopIteration:
            raise MissingColumnError(expected[0]) from None
        for name in expected:
            if name not in header:
                raise MissingColumnError(name)
        if header != expected:
            raise HeaderMismatchError(
                f"header must be exactly {expected!r} in order, got {header!r}"
            )
        rows = list(reader)
    width = len(expected)
    end = next((i for i, row in enumerate(rows) if len(row) != width), len(rows))
    try:
        cells = np.fromiter(map(int, chain.from_iterable(rows[:end])), _code_type(schema), end * width)
    except (ValueError, OverflowError):  # a cell int() refuses, or an int that no legal code's type holds
        end = next((i for i, row in enumerate(rows) if _row_fault(i + 1, row, expected)), len(rows))
        cells = np.array([[int(cell) for cell in row] for row in rows[:end]], dtype=object)
    cells = cells.reshape(end, width)
    ds = Dataset(schema, cells[:, :-1], cells[:, -1])  # raises the first illegal code above row end + 1
    if end < len(rows):
        raise _row_fault(end + 1, rows[end], expected)
    return ds


def write_csv(ds: Dataset, path) -> None:
    """Write *ds* back to CSV; load_dataset(write_csv(ds)) round-trips."""
    text = io.StringIO()
    writer = csv.writer(text, lineterminator="\n")
    writer.writerow(list(ds.schema.feature_names) + [ds.schema.goal_name])
    cells = np.column_stack((ds.codes, ds.y))
    for start in range(0, len(cells), 4096):  # rows become Python lists a block at a time
        writer.writerows(cells[start:start + 4096].tolist())
    write_text(path, text.getvalue())


def check_ratios(ratios) -> None:
    """Refuse train / test / validation ratios that are not positive or do not sum to 1."""
    r_train, r_test, r_val = ratios
    if not (min(r_train, r_test, r_val) > 0 and abs(r_train + r_test + r_val - 1.0) <= 1e-9):  # NaN fails too
        raise RatioSumError(ratios)


def _part_sizes(n: int, ratios) -> tuple[int, int, int]:
    check_ratios(ratios)
    n_train = int(n * ratios[0])
    n_test = int(n * ratios[1])
    return n_train, n_test, n - n_train - n_test


def apportion(counts: dict[int, int], total: int) -> dict[int, int]:
    """Largest-remainder allocation of *total* seats proportional to *counts*."""
    pool = sum(counts.values())
    quotas = {c: total * counts[c] / pool for c in counts}
    alloc = {c: int(quotas[c]) for c in counts}
    leftover = total - sum(alloc.values())
    by_remainder = sorted(counts, key=lambda c: (alloc[c] - quotas[c], c))
    for c in by_remainder[:leftover]:
        alloc[c] += 1
    return alloc


def split_dataset(ds: Dataset, ratios, seed: int, stratified: bool = True) -> SplitBundle:
    """Deterministic three-way split.

    Part sizes are always (floor(n*r_train), floor(n*r_test), remainder).
    The shuffle is a seeded permutation; with ``stratified`` the permutation
    and allocation happen per class, keeping every part's class ratio within
    one record per class of the whole-dataset ratio.
    """
    n = len(ds)
    n_train, n_test, n_val = _part_sizes(n, ratios)
    rng = random.Random(seed)

    if not stratified:
        order = list(range(n))
        rng.shuffle(order)
        train_idx = order[:n_train]
        test_idx = order[n_train:n_train + n_test]
        val_idx = order[n_train + n_test:]
    else:
        by_class = {c: np.flatnonzero(ds.y == c).tolist() for c in (0, 1)}
        for lab, members in by_class.items():
            if not members:
                raise EmptyClassError(lab)
            rng.shuffle(members)
        counts = {c: len(m) for c, m in by_class.items()}
        train_alloc = apportion(counts, n_train)
        rest = {c: counts[c] - train_alloc[c] for c in counts}
        test_alloc = apportion(rest, n_test)
        train_idx, test_idx, val_idx = [], [], []
        for c in sorted(by_class):
            members = by_class[c]
            t, e = train_alloc[c], test_alloc[c]
            train_idx.extend(members[:t])
            test_idx.extend(members[t:t + e])
            val_idx.extend(members[t + e:])
        train_idx.sort()
        test_idx.sort()
        val_idx.sort()

    return SplitBundle(
        train=ds.subset(train_idx),
        test=ds.subset(test_idx),
        validation=ds.subset(val_idx),
    )

"""The array-native Dataset and CSV loader against the cell-by-cell oracle.

Malformed inputs (ragged rows, cells ``int()`` refuses, illegal codes, bad
labels, ints past int64, and two faults in different rows) must raise the
same exception type with the same message as ``tests/data_oracle.py``;
well-formed inputs must give the same records and labels.
"""

from __future__ import annotations

import csv

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import data_oracle as oracle
from riskminer.chisq import contingency
from riskminer.dataset import Dataset, load_dataset
from riskminer.errors import IllegalValueError
from riskminer.generate import GenSpec, PlantedRule, generate_synthetic
from riskminer.mining import apriori, default_factor_map, dissolve_dataset
from riskminer.schema import FeatureSpec, Schema

SCHEMA = Schema(
    features=(
        FeatureSpec("a", "binary", (0, 1)),
        FeatureSpec("b", "ordinal", (1, 2, 3)),
        FeatureSpec("c", "discrete", (5, -2, 0)),
    )
)
HEADER = list(SCHEMA.feature_names) + [SCHEMA.goal_name]
LEGAL = [spec.values for spec in SCHEMA.features] + [(0, 1)]


def spellings(code: int) -> list[str]:
    """Ways int() reads *code*: padded, signed, zero-led, with an underscore."""
    digits = str(abs(code))
    sign = "-" if code < 0 else "+"
    return [str(code), f" {code}", f"{code} ", f"{sign}{digits}", f"{sign}0{digits}", f"{sign}0_{digits}"]


ILLEGAL_CELLS = ["7", "-1", "4", "1_0", str(10**20), "-" + str(10**19), "x", "", "1.0", "0x1", "1e3", "nan", "٣"]


@st.composite
def csv_rows(draw):
    n = draw(st.integers(0, 8))
    rows = [
        [draw(st.sampled_from(spellings(draw(st.sampled_from(values))))) for values in LEGAL]
        for _ in range(n)
    ]
    fault = st.tuples(st.integers(0, 7), st.integers(0, 3), st.sampled_from(ILLEGAL_CELLS + ["ragged-", "ragged+"]))
    faults = draw(st.lists(fault, max_size=3))
    for r, j, cell in faults:
        if r >= len(rows):
            continue
        if cell == "ragged-":
            rows[r] = rows[r][:j]
        elif cell == "ragged+":
            rows[r] = rows[r] + ["0"]
        elif j < len(rows[r]):
            rows[r][j] = cell
    return rows


def outcome(build, *args):
    try:
        ds = build(*args)
    except Exception as exc:  # the oracle's exception is the expected behaviour
        return type(exc), str(exc)
    return ds.records, ds.labels


@given(rows=csv_rows())
@settings(max_examples=400, deadline=None)
def test_loader_matches_the_cell_by_cell_oracle(tmp_path_factory, rows):
    path = tmp_path_factory.mktemp("csv") / "data.csv"
    with open(path, "w", newline="", encoding="utf-8") as fh:
        writer = csv.writer(fh, lineterminator="\n")
        writer.writerow(HEADER)
        writer.writerows(rows)
    assert outcome(load_dataset, path, SCHEMA) == outcome(oracle.load_dataset, path, SCHEMA)


VALUES = st.one_of(
    st.sampled_from([0, 1, 2, 3, 5, -2, -1, 7, True, 1.0, 1.5, "1", None, 2**70]),
    st.integers(-3, 8),
)


@st.composite
def record_lists(draw):
    """Rows of mostly legal codes with a few odd cells, a ragged row now and
    then, and a label per row (one too many or too few now and then)."""
    n = draw(st.integers(0, 8))
    cell = st.one_of(st.sampled_from([0, 1, 5]), st.sampled_from([0, 1, 5]), VALUES)
    records = tuple(tuple(draw(st.lists(cell, min_size=3, max_size=3))) for _ in range(n))
    if records and draw(st.booleans()):
        r = draw(st.integers(0, n - 1))
        records = records[:r] + (records[r][: draw(st.sampled_from([0, 2, 4]))] + (0,),) + records[r + 1:]
    label = st.one_of(st.sampled_from([0, 1]), VALUES)
    labels = tuple(draw(st.lists(label, min_size=n, max_size=n)))
    return records, labels + tuple(draw(st.lists(label, max_size=1))) if draw(st.integers(0, 9)) == 0 else labels


@given(data=record_lists())
@settings(max_examples=400, deadline=None)
def test_constructor_matches_the_cell_by_cell_oracle(data):
    records, labels = data
    assert outcome(Dataset, SCHEMA, records, labels) == outcome(oracle.TupleDataset, SCHEMA, records, labels)


def test_two_faults_report_the_earlier_row_and_the_value_as_a_python_int(tmp_path):
    path = tmp_path / "data.csv"
    path.write_text("a,b,c,victim\n0,1,5,0\n0,1,5,x\n9,1,5,0\n", encoding="utf-8")
    with pytest.raises(IllegalValueError, match="illegal value 'x' for column 'victim' on data row 2"):
        load_dataset(path, SCHEMA)
    path.write_text("a,b,c,victim\n0,1,5,0\n0,4,5,1\n0,1,5\n", encoding="utf-8")
    with pytest.raises(IllegalValueError, match="illegal value 4 for column 'b' on data row 2"):
        load_dataset(path, SCHEMA)


def test_dataset_arrays_are_read_only_copies():
    codes = np.array([[0, 1, 5], [1, 3, -2]])
    ds = Dataset(SCHEMA, codes, np.array([0, 1]))
    codes[0, 0] = 1
    assert ds.records == ((0, 1, 5), (1, 3, -2))
    with pytest.raises(ValueError):
        ds.codes[0, 0] = 1
    assert ds.subset([1]).records == ((1, 3, -2),)


def test_contingency_rows_follow_the_schema_value_order():
    codes = [[0, 1, 0], [1, 2, 5], [0, 3, -2], [1, 1, 5], [0, 2, 5]]
    ds = Dataset(SCHEMA, codes, [1, 0, 1, 1, 0])
    want = [
        [sum(1 for rec, lab in zip(codes, ds.labels) if rec[2] == v and lab == c) for c in (0, 1)]
        for v in SCHEMA.features[2].values
    ]
    assert contingency(ds, "c").tolist() == want == [[2, 1], [0, 1], [0, 1]]


def test_dissolved_transactions_iterate_as_the_per_record_oracle():
    """Apriori lists singletons in the order their items are first seen, so
    each transaction must iterate as the per-record version's does."""
    rule = PlantedRule((("weak-password", 1), ("compulsive-buyer", 1)), victim_prob=0.9, coverage=0.3)
    ds = generate_synthetic(GenSpec(n_records=400, planted_rule=rule, seed=2))
    fm = default_factor_map().restrict(  # few items: a small hash table, where insertion order shows
        ["weak-password", "compulsive-buyer", "shared-email-access", "used-virus-infected-pen-drive"]
    )
    got, want = dissolve_dataset(ds, fm), oracle.dissolve_dataset(ds, fm)
    assert [list(t) for t in got] == [list(t) for t in want]
    assert list(apriori(got, 0.2)) == list(apriori(want, 0.2))

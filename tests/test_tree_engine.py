"""The histogram split engine and index routing of the tree learners, checked
bit for bit against the scalar reference in ``tree_oracle``."""

from __future__ import annotations

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

import tree_oracle
from riskminer.classifiers.tree import TreeTable, category_codes
from tree_oracle import TreeNode, engine_split, flatten

# -- split search against the scalar oracle ----------------------------------


@st.composite
def split_problems(draw):
    """A node: codes of widths 2-5 with some codes absent, labels or targets
    with frequent ties, and a candidate feature subset."""
    n_rows = draw(st.integers(1, 40))
    n_features = draw(st.integers(1, 5))
    columns = []
    for f in range(n_features):
        if f and draw(st.booleans()):
            # a copy (possibly recoded) of an earlier column forces feature ties
            source = columns[draw(st.integers(0, f - 1))]
            shift = draw(st.integers(0, 2))
            columns.append([c + shift for c in source])
            continue
        width = draw(st.integers(2, 5))
        codes = draw(st.lists(st.integers(0, width - 1), min_size=1, max_size=width, unique=True))
        columns.append(draw(st.lists(st.sampled_from(codes), min_size=n_rows, max_size=n_rows)))
    records = [list(row) for row in zip(*columns)]
    criterion = draw(st.sampled_from(["gini", "friedman-mse"]))
    if criterion == "gini":
        labels = draw(st.lists(st.integers(0, 1), min_size=n_rows, max_size=n_rows))
    else:
        value = st.one_of(
            st.sampled_from([-0.5, -0.25, 0.0, 0.25, 0.5, 1.0]),
            st.floats(-1.0, 1.0, allow_nan=False, allow_subnormal=False),
        )
        labels = draw(st.lists(value, min_size=n_rows, max_size=n_rows))
    features = draw(st.lists(st.integers(0, n_features - 1), min_size=1, max_size=n_features, unique=True))
    return records, labels, features, criterion


def _same_choice(got, want):
    if want is None:
        return got is None
    return (
        got is not None
        and (got.feature, got.left_values, got.right_values) == (want.feature, want.left_values, want.right_values)
        and float(got.decrease).hex() == float(want.decrease).hex()
    )


# feature 2 takes codes 4, 6, 7 and 8: numpy's pairwise sum of its nine
# per-code target sums rounds its total apart from the grower's, code by
# code (a gain of 0.8670000000000001 against 0.867)
_WIDE_CODES = [[2, 4, 6, 8, 10], [0, 2, 4, 6, 8], [3, 5, 7, 9, 11], [4, 6, 8, 10, 12], [0, 2, 4, 6, 8]]


@settings(max_examples=400, deadline=None)
@given(split_problems())
@example((_WIDE_CODES, [1.0, 0.1, 0.1, 0.5, -0.5], [2], "friedman-mse"))
def test_best_split_matches_scalar_oracle(problem):
    records, labels, features, criterion = problem
    got = engine_split(records, labels, features, criterion)
    want = tree_oracle.best_split(records, labels, features, criterion)
    assert _same_choice(got, want), (got, want)


def test_best_split_matches_oracle_on_large_nodes():
    # node sizes in the thousands exercise squares of many distinct ratios
    rng = np.random.default_rng(3)
    for trial in range(30):
        n = int(rng.integers(200, 3000))
        records = np.column_stack(
            [rng.integers(0, w, size=n) for w in rng.integers(2, 6, size=6)]
        ).tolist()
        labels = (rng.random(n) < rng.random()).astype(int).tolist()
        targets = (rng.random(n) - 0.5).tolist()
        for ys, criterion in ((labels, "gini"), (targets, "friedman-mse")):
            got = engine_split(records, ys, range(6), criterion)
            want = tree_oracle.best_split(records, ys, range(6), criterion)
            assert _same_choice(got, want), (trial, criterion, got, want)


def _product_gini(c0, c1):
    t = c0 + c1
    return 1.0 - ((c0 / t) * (c0 / t) + (c1 / t) * (c1 / t))


@pytest.mark.parametrize("left, right", [((17, 46), (7, 53)), ((33, 8), (4, 51)), ((56, 6), (43, 18))])
def test_gini_gain_takes_squares_as_ieee_products(left, right):
    # label counts for which C pow(x, 2) and x * x round some square apart,
    # changing the gain by an ulp: the gain takes the products
    records = [[0]] * sum(left) + [[1]] * sum(right)
    labels = [0] * left[0] + [1] * left[1] + [0] * right[0] + [1] * right[1]
    got = engine_split(records, labels, [0])
    n_l, n_r = sum(left), sum(right)
    n = n_l + n_r
    decrease = (_product_gini(left[0] + right[0], left[1] + right[1])
                - (n_l / n) * _product_gini(*left) - (n_r / n) * _product_gini(*right))
    assert float(got.decrease).hex() == decrease.hex()
    want = tree_oracle.best_split(records, labels, [0])
    assert _same_choice(got, want), (got, want)


# -- batch scoring against per-row descent -----------------------------------


@st.composite
def random_trees(draw, n_features=3, max_depth=4):
    def node(depth):
        if depth == max_depth or draw(st.integers(0, 3)) == 0:
            n = draw(st.integers(1, 12))
            return TreeNode(n=n, pos=draw(st.integers(0, n)))
        codes = draw(st.lists(st.integers(0, 4), min_size=2, max_size=5, unique=True))
        cut = draw(st.integers(1, len(codes) - 1))
        # equal child sizes are frequent, so the left-on-tie rule is exercised
        left, right = node(depth + 1), node(depth + 1)
        if draw(st.booleans()):  # a node holds no more victims than rows
            right.n, right.pos = left.n, min(right.pos, left.n)
        return TreeNode(
            n=left.n + right.n,
            feature=draw(st.integers(0, n_features - 1)),
            left_values=tuple(sorted(codes[:cut])),
            right_values=tuple(sorted(codes[cut:])),
            left=left,
            right=right,
        )

    return node(0)


@settings(max_examples=200, deadline=None)
@given(
    st.lists(random_trees(), min_size=1, max_size=3),
    st.lists(
        st.lists(st.sampled_from([-1.0, -0.5, 0.0, 0.7, 1.0, 2.0, 2.9, 3.0, 4.0, 5.0, 9.0]), min_size=3, max_size=3),
        min_size=0,
        max_size=30,
    ),
)
def test_batch_scoring_matches_per_row_descent(roots, rows):
    X = np.array(rows, dtype=np.float64).reshape(len(rows), 3)
    trees, nodes = flatten(roots)
    reached = TreeTable.from_record(trees, 3).leaf_ids(category_codes(X))
    assert reached.shape == (len(rows), len(roots))
    for i, row in enumerate(X):
        for t, root in enumerate(roots):
            assert nodes[reached[i, t]] is tree_oracle._descend(root, row)


def test_negative_split_codes_are_refused():
    # fits never produce them; a model file that holds one is refused on load
    root = TreeNode(n=4, feature=0, left_values=(-1,), right_values=(1,), left=TreeNode(n=2), right=TreeNode(n=2, pos=2))
    with pytest.raises(ValueError):
        TreeTable.from_record(flatten([root])[0], 1)

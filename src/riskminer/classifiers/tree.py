"""Decision-tree machinery shared by the tree, forest, and boosting learners.

Splits are categorical: a node partitions one feature's observed codes into a
left and a right value set. Classification trees grow on the gini criterion,
regression trees (used for boosting) on the Friedman MSE improvement. Nodes
split as long as they are impure and some feature still varies, so a tree can
work through XOR-like interactions whose first split has zero gain; a pure or
constant-featured node becomes a leaf.

The split search works from histograms. A fit casts its code matrix to int64
once; at each node, one ``np.bincount`` over the node's codes, offset by
feature, counts every code of every candidate feature (per label for gini,
with per-code target sums for Friedman MSE). All bipartitions of all those
features are then scored from the histogram at once. The bipartition tables
are built on first use and cached by the feature's present-code tuple, and a
node's list of candidate splits by the presence pattern of all its codes. The
vectorised arithmetic repeats the scalar formulas operation for operation,
so gains, and with them the grown trees, are bit-identical to scoring one
partition at a time.

Ties go to the lowest feature index, then to the partition whose left set is
lexicographically smallest (the left set always holds the smallest present
code).

A learner's fitted trees are one record of per-node lists (``TREE_COLUMNS``),
in preorder and one tree after another: ``grow`` appends to it, routing
row-index arrays down an explicit stack, ``TreeTable`` builds the scoring
table from it, and model files store it. Scoring steps all rows down all
trees at once, one level per step. It truncates float codes toward zero, as
``int()`` does. A code the node never saw at fit time follows the heavier
child; when the children are equally heavy it goes left.
"""

from __future__ import annotations

import functools
from dataclasses import dataclass

import numpy as np

from ..errors import EmptyNodeError, check_shape


def gini(counts) -> float:
    """Gini impurity 1 - sum((c_i / n)^2) of a class-count vector."""
    total = float(sum(counts))
    if total <= 0:
        raise EmptyNodeError("gini of an empty count vector")
    return 1.0 - sum((c / total) ** 2 for c in counts)


@dataclass(frozen=True)
class SplitChoice:
    feature: int
    left_values: tuple[int, ...]
    right_values: tuple[int, ...]
    decrease: float


def _partitions(present: list[int]):
    # Non-trivial bipartitions; the left side always holds the smallest code
    # and candidates come out in lexicographic left-tuple order.
    first, rest = present[0], present[1:]
    out = []
    for mask in range(2 ** len(rest) - 1):
        left = [first] + [v for b, v in enumerate(rest) if mask >> b & 1]
        right = [v for b, v in enumerate(rest) if not mask >> b & 1]
        out.append((tuple(left), tuple(right)))
    out.sort(key=lambda lr: lr[0])
    return out


@functools.lru_cache(maxsize=None)
def _partition_table(present: tuple[int, ...]) -> tuple:
    """The bipartitions of one present-code tuple, built on first use."""
    return tuple(_partitions(list(present)))


@dataclass(frozen=True)
class _Plan:
    """Every candidate split of a node whose (feature, code) presence matrix
    has one pattern, listed feature by feature in tie-break order."""

    feature: np.ndarray  # (candidates,) feature position
    splits: tuple  # (left, right) code tuples per candidate
    left_bins: tuple  # (candidate rows, (rows, size) flat bins of the left codes) per left size
    widths: tuple  # (feature positions, width) per distinct width, for per-feature sums


# A plan takes a few kB and a run meets thousands of presence patterns, so
# only the recent ones are kept; the patterns of shallow nodes recur most.
@functools.lru_cache(maxsize=256)
def _plan(k: int, width: int, presence: bytes) -> _Plan | None:
    """The plan for a (k, width) presence matrix, or None when no feature has
    two present codes."""
    seen = np.frombuffer(presence, dtype=bool).reshape(k, width)
    feature, splits, bins = [], [], []
    by_width: dict[int, list[int]] = {}
    for j in range(k):
        present = tuple(np.flatnonzero(seen[j]).tolist())
        if len(present) < 2:
            continue
        by_width.setdefault(present[-1] + 1, []).append(j)
        for left, right in _partition_table(present):
            feature.append(j)
            splits.append((left, right))
            bins.append([j * width + c for c in left])
    if not feature:
        return None
    sizes = sorted({len(b) for b in bins})
    return _Plan(
        feature=np.array(feature),
        splits=tuple(splits),
        left_bins=tuple(
            (
                np.array([i for i, b in enumerate(bins) if len(b) == size]),
                np.array([b for b in bins if len(b) == size]),
            )
            for size in sizes
        ),
        widths=tuple((np.array(js), w) for w, js in by_width.items()),
    )


def _squares(x: np.ndarray) -> np.ndarray:
    """``x ** 2`` elementwise, rounded as the scalar ``gini`` rounds it.

    A scalar ``** 2`` calls the C library's ``pow``, which can round a square
    lying within a hair of a rounding midpoint differently from ``x * x``;
    so the squares are taken by Python's float power, which calls that pow.
    """
    return np.array([v**2 for v in x.tolist()])


def _left_sums(plan: _Plan, hist: np.ndarray) -> np.ndarray:
    """Per candidate, *hist* summed over its left codes. Each sum runs over the
    same values, in the same order, as ``hist[list(left_values)].sum(axis=0)``
    in a one-partition scorer, so float sums round the same way."""
    out = np.empty((len(plan.splits),) + hist.shape[1:], dtype=hist.dtype)
    for rows, bins in plan.left_bins:
        out[rows] = hist[bins].sum(axis=1)
    return out


def _gini_gains(plan: _Plan, hist: np.ndarray, totals: list[int]) -> np.ndarray:
    """Per-candidate gini decrease from flat (feature-code, label) counts;
    *totals* holds the node's label counts."""
    left = _left_sums(plan, hist)
    l0, l1 = left[:, 0], left[:, 1]
    r0, r1 = totals[0] - l0, totals[1] - l1
    n_l, n_r = l0 + l1, r0 + r1
    n = totals[0] + totals[1]
    sq = _squares(np.concatenate([l0 / n_l, l1 / n_l, r0 / n_r, r1 / n_r]))
    c = len(plan.splits)
    gini_l = 1.0 - (sq[:c] + sq[c : 2 * c])
    gini_r = 1.0 - (sq[2 * c : 3 * c] + sq[3 * c :])
    return gini(totals) - (n_l / n) * gini_l - (n_r / n) * gini_r


def _friedman_gains(plan: _Plan, cnt: np.ndarray, sums: np.ndarray, n: int, width: int) -> np.ndarray:
    """Per-candidate Friedman MSE improvement from flat per-code counts and
    target sums. Like the left sums, each feature's total runs over the array
    a one-partition scorer sums: its codes from 0 up to its largest present."""
    n_l = _left_sums(plan, cnt)
    n_r = n - n_l
    s_l = _left_sums(plan, sums)
    per_feature = sums.reshape(-1, width)
    s = np.zeros(per_feature.shape[0])
    for js, w in plan.widths:
        s[js] = per_feature[js, :w].sum(axis=1)
    s_r = s[plan.feature] - s_l
    diff = s_l / n_l - s_r / n_r
    return (n_l * n_r / (n_l + n_r)) * diff * diff


def _search(codes: np.ndarray, y: np.ndarray, feats: np.ndarray, width: int, criterion: str):
    """Best split of an impure node from its (rows, candidate features) int64
    codes, all in [0, width), with *feats* the ascending feature indices."""
    n, k = codes.shape
    bins = (codes + np.arange(k) * width).ravel()
    if criterion == "gini":
        hist = np.bincount(bins * 2 + np.repeat(y, k), minlength=2 * k * width).reshape(k * width, 2)
        cnt = hist[:, 0] + hist[:, 1]
    else:
        cnt = np.bincount(bins, minlength=k * width)
    plan = _plan(k, width, (cnt > 0).tobytes())
    if plan is None:
        return None
    if criterion == "gini":
        gains = _gini_gains(plan, hist, hist[:width].sum(axis=0).tolist())
    else:
        sums = np.bincount(bins, weights=np.repeat(y, k), minlength=k * width)
        gains = _friedman_gains(plan, cnt, sums, n, width)
    best = int(gains.argmax())  # first maximum: lowest feature, then smallest left set
    left, right = plan.splits[best]
    return SplitChoice(int(feats[plan.feature[best]]), left, right, float(gains[best]))


def _width(codes: np.ndarray) -> int:
    """Histogram width of a fit's int64 code matrix: its largest code + 1."""
    if codes.size and int(codes.min()) < 0:
        raise ValueError("category codes must be non-negative")
    return int(codes.max()) + 1 if codes.size else 1


def category_codes(X) -> np.ndarray:
    """Float codes as an int64 matrix, each truncated toward zero as ``int()``
    truncates it; NaN and infinite codes are refused as ``int()`` refuses them."""
    X = np.asarray(X)
    if X.dtype.kind == "f" and not np.isfinite(X).all():
        raise ValueError("category codes must be finite")
    return X.astype(np.int64)


# A fitted tree set is one record of per-node lists, in preorder, one tree
# after another; ``roots`` holds each tree's first node. An inner node tests
# ``feature`` and sends the codes of ``left_values`` to node ``left`` and those
# of ``right_values`` to node ``right``; a leaf has feature -1, children -1 and
# empty code sets. ``n`` counts the node's training rows, ``pos`` its victims
# (0 in a regression tree) and ``value`` is a regression leaf's output.
TREE_COLUMNS = ("roots", "feature", "left", "right", "left_values", "right_values", "n", "pos", "value")


def new_trees() -> dict:
    return {column: [] for column in TREE_COLUMNS}


def grow(
    trees: dict,
    codes: np.ndarray,
    y: np.ndarray,
    criterion: str,
    min_samples_split: int = 2,
    max_depth: int | None = None,
    max_features: int | None = None,
    rng: np.random.Generator | None = None,
) -> np.ndarray:
    """Append to *trees* one tree grown on an int64 code matrix (see
    ``category_codes``) and return the node id of the leaf each row reaches.

    A node splits while it holds ``min_samples_split`` rows, lies above
    *max_depth* and its targets vary. With *max_features*, each such node
    draws its candidate features from *rng*, in preorder. A regression tree's
    ``value`` is left at 0.0 for the caller to set from each leaf's rows.
    """
    width = _width(codes)
    n_features = codes.shape[1]
    every = np.arange(n_features)
    leaf = np.empty(codes.shape[0], dtype=np.int64)
    trees["roots"].append(len(trees["n"]))
    stack = [(np.arange(codes.shape[0]), 0, None)]  # rows, depth, (parent, side) to link
    while stack:  # popping the left child first keeps the nodes in preorder
        idx, depth, link = stack.pop()
        i = len(trees["n"])
        if link:
            trees[link[1]][link[0]] = i
        sub_y = y[idx]
        pos = int(sub_y.sum()) if criterion == "gini" else 0
        for column, v in zip(TREE_COLUMNS[1:], (-1, -1, -1, (), (), int(idx.size), pos, 0.0)):
            trees[column].append(v)
        choice = None
        if idx.size >= min_samples_split and (max_depth is None or depth < max_depth) and (sub_y != sub_y[0]).any():
            if max_features is not None and max_features < n_features:
                feats = np.sort(rng.choice(n_features, size=max_features, replace=False))
                choice = _search(codes[idx[:, None], feats], sub_y, feats, width, criterion)
            else:
                choice = _search(codes[idx], sub_y, every, width, criterion)
        if choice is None:
            leaf[idx] = i
            continue
        trees["feature"][i] = choice.feature
        trees["left_values"][i], trees["right_values"][i] = choice.left_values, choice.right_values
        mask = (codes[idx, choice.feature][:, None] == np.asarray(choice.left_values)).any(axis=1)
        stack += [(idx[~mask], depth + 1, (i, "right")), (idx[mask], depth + 1, (i, "left"))]
    return leaf


def _ints(values, name: str, least: int, below: int | None = None) -> np.ndarray:
    if not all(type(v) is int and least <= v and (below is None or v < below) for v in values):
        raise ValueError(f"tree {name} must be integers in [{least}, {below or 'inf'})")
    return np.array(values, dtype=np.int64)


class TreeTable:
    """The scoring table of a tree record (see ``TREE_COLUMNS``).

    ``codes`` holds every code that some node splits on, in ascending order.
    Node ``i`` tests the code of feature ``feature[i]`` and moves to node
    ``next[i, j]``, with ``j`` that code's position in ``codes``; a leaf
    moves to itself. Scoring steps every row down every tree at once, one
    level per step, so a batch costs a few array operations per level
    instead of a walk per row and tree. The last column of ``next`` serves
    every code that no node splits on; there, as for a code the node never
    saw at fit time, a row follows the heavier child, and the left child
    when the two are equally heavy.

    A record read from a file is outside input: one that does not describe
    trees over *n_features* features (lists of unequal length, an index
    outside the nodes or the features, a child that does not come after its
    parent, a split code that is not an integer >= 0) raises ValueError.
    """

    def __init__(self, trees: dict, n_features: int):
        size = len(trees["feature"])
        if any(len(trees[column]) != size for column in TREE_COLUMNS[1:]):
            raise ValueError("tree node lists differ in length")
        if not trees["roots"]:
            raise ValueError("a tree record holds at least one tree")
        self.roots = _ints(trees["roots"], "roots", 0, size)
        self.feature = _ints(trees["feature"], "features", -1, n_features)
        left, right = _ints(trees["left"], "children", -1, size), _ints(trees["right"], "children", -1, size)
        self.n, self.pos = _ints(trees["n"], "row counts", 1), _ints(trees["pos"], "victim counts", 0)
        self.value = check_shape("tree values", trees["value"], (size,))
        inner = np.flatnonzero(self.feature >= 0)
        left, right = left[inner], right[inner]
        if (left <= inner).any() or (right <= inner).any():
            raise ValueError("every tree node must come after its parent")
        sides = []  # (codes, their nodes, the child they go to) for each side
        for column, child in (("left_values", left), ("right_values", right)):
            sets = [trees[column][i] for i in inner.tolist()]
            sizes = [len(codes) for codes in sets]
            codes = _ints([c for codes in sets for c in codes], "split codes", 0)
            sides.append((codes, np.repeat(inner, sizes), np.repeat(child, sizes)))
        self.codes = np.array(sorted(set(np.concatenate([codes for codes, _, _ in sides]).tolist())), dtype=np.int64)
        self.next = np.repeat(np.arange(size)[:, None], len(self.codes) + 1, axis=1)
        self.next[inner] = np.where(self.n[left] < self.n[right], right, left)[:, None]
        for codes, nodes, child in sides:
            self.next[nodes, np.searchsorted(self.codes, codes)] = child

    def leaf_ids(self, codes: np.ndarray) -> np.ndarray:
        """(rows, trees) id of the leaf each row reaches."""
        columns = np.searchsorted(self.codes, codes)
        # the last column serves each code that no node splits on, negative
        # ones too: it differs from the entry at its sorted position, where a
        # -1 stands in past the last code
        columns[np.append(self.codes, -1)[columns] != codes] = len(self.codes)
        node = np.tile(self.roots, (codes.shape[0], 1))
        rows = np.arange(codes.shape[0])[:, None]
        while True:
            feature = self.feature[node]
            if not (feature >= 0).any():
                return node
            node = self.next[node, columns[rows, feature]]

    def leaf_values(self, X: np.ndarray, output: np.ndarray) -> np.ndarray:
        """(rows, trees) *output* of the leaf each row of *X* reaches."""
        return output[self.leaf_ids(category_codes(X))]

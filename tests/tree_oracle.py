"""Reference oracles for the tree learners' growth, split search and routing.

These are the implementations the level-wise grower in
``riskminer.classifiers.tree`` replaced, kept verbatim but for their squares,
which are IEEE products (``x * x``) as the grower's are, not ``x ** 2``; for
their sums over a feature's codes, which add one code at a time in code
order (``_in_order``) as the grower's do, not by numpy's pairwise sum, which
adds eight or more numbers in another order; and for the code sets that
``grow`` records, which are lists, as in model files:

- ``grow`` is the depth-first grower: it routes row-index arrays down an
  explicit stack and runs one histogram search, ``_search``, per node (with
  the bipartition plans of ``_plan``), appending each tree in preorder.
- ``best_split`` is the scalar search that ``_search`` replaced before it: it
  scores one bipartition at a time with ``_gini_gain`` / ``_friedman_gain``.
- ``_descend`` walks one row down a tree of ``TreeNode`` objects, the form
  fitted trees took before they became per-node lists.

The differential tests compare the grower against them bit for bit:
``engine_split`` puts ``best_split``'s question to the grower's level search
for a single node, ``flatten`` turns ``TreeNode`` trees into the tree
record, and ``preorder`` renumbers the grower's level-by-level record to
the depth-first grower's preorder.
"""

from __future__ import annotations

import functools
from dataclasses import dataclass

import numpy as np

from riskminer.classifiers.tree import TREE_COLUMNS, TreeGrower, _best_splits, _layout


class EmptyNodeError(ValueError):
    """Impurity requested for an empty class-count vector."""


def gini(counts) -> float:
    """Gini impurity 1 - sum((c_i / n)^2) of a class-count vector."""
    total = float(sum(counts))
    if total <= 0:
        raise EmptyNodeError("gini of an empty count vector")
    return 1.0 - sum((c / total) * (c / total) for c in counts)


@dataclass(frozen=True)
class SplitChoice:
    feature: int
    left_values: tuple[int, ...]
    right_values: tuple[int, ...]
    decrease: float


@dataclass
class TreeNode:
    n: int
    # interior
    feature: int | None = None
    left_values: tuple[int, ...] = ()
    right_values: tuple[int, ...] = ()
    left: "TreeNode | None" = None
    right: "TreeNode | None" = None
    # leaf payloads
    pos: int = 0  # victim count (classification)
    value: float = 0.0  # leaf output (regression)

    def is_leaf(self) -> bool:
        return self.feature is None


def flatten(roots: list[TreeNode]) -> tuple[dict, list[TreeNode]]:
    """The tree record of *roots* (see ``TREE_COLUMNS``) and its nodes, both
    in preorder, tree after tree."""
    trees = {column: [] for column in TREE_COLUMNS}
    nodes: list[TreeNode] = []

    def add(node: TreeNode) -> int:
        i = len(nodes)
        nodes.append(node)
        inner = not node.is_leaf()
        row = (node.feature if inner else -1, -1, -1, list(node.left_values), list(node.right_values),
               node.n, node.pos, node.value)
        for column, v in zip(TREE_COLUMNS[1:], row):
            trees[column].append(v)
        if inner:
            trees["left"][i] = add(node.left)
            trees["right"][i] = add(node.right)
        return i

    for root in roots:
        trees["roots"].append(add(root))
    return trees, nodes


def preorder(trees: dict) -> tuple[dict, np.ndarray]:
    """The tree record *trees* renumbered to preorder, tree after tree, as
    the depth-first grower numbered its nodes, and each node's new id (-1
    for a node that no root of *trees* reaches)."""
    order = []
    for root in trees["roots"]:
        stack = [root]
        while stack:
            i = stack.pop()
            order.append(i)
            if trees["feature"][i] >= 0:
                stack += [trees["right"][i], trees["left"][i]]
    new = np.full(len(trees["feature"]), -1)
    new[order] = np.arange(len(order))
    out = {column: [trees[column][i] for i in order] for column in TREE_COLUMNS[1:]}
    for column in ("left", "right"):
        out[column] = [int(new[i]) if i >= 0 else -1 for i in out[column]]
    return {"roots": new[trees["roots"]].tolist(), **out}, new


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


def best_split(records, labels, candidate_features, criterion: str = "gini") -> SplitChoice | None:
    """Best categorical split of a node, or None for pure/unsplittable nodes.

    Ties go to the lowest feature index, then to the partition whose left
    side is lexicographically smallest (it always holds the smallest code).
    """
    X = np.asarray(records)
    if criterion == "gini":
        y = np.asarray(labels, dtype=np.int64)
        if y.size == 0 or np.all(y == y[0]):
            return None
        scorer = _gini_gain
    elif criterion == "friedman-mse":
        y = np.asarray(labels, dtype=np.float64)
        if y.size == 0 or np.all(y == y[0]):
            return None
        scorer = _friedman_gain
    else:
        raise ValueError(f"unknown criterion {criterion!r}")

    best: SplitChoice | None = None
    for f in sorted(int(c) for c in candidate_features):
        codes = X[:, f].astype(np.int64)
        present = sorted(set(codes.tolist()))
        if len(present) < 2:
            continue
        for left, right in _partitions(present):
            decrease = scorer(codes, y, left)
            if decrease is None:
                continue
            if best is None or decrease > best.decrease:
                best = SplitChoice(f, left, right, decrease)
    return best


def engine_split(records, labels, candidate_features, criterion: str = "gini") -> SplitChoice | None:
    """The grower's best split of the node that ``best_split`` is given, from
    its level search run on that one node, or None for a pure node."""
    y = np.asarray(labels, dtype=np.int64 if criterion == "gini" else np.float64)
    feats = np.array(sorted({int(c) for c in candidate_features}), dtype=np.int64)
    if y.size == 0 or np.all(y == y[0]) or feats.size == 0:
        return None
    grower = TreeGrower(np.asarray(records)[:, feats])
    pos = np.array([int(y.sum()) if criterion == "gini" else 0])
    layout = _layout(grower.cells, np.array([y.size]), grower.width)
    slot, side, gain = _best_splits(layout, y, pos, criterion)
    if slot[0] < 0:
        return None
    codes = grower.codes[slot[0]]
    return SplitChoice(int(feats[slot[0]]), tuple(codes[side[0] == 1].tolist()), tuple(codes[side[0] == 2].tolist()),
                       float(gain[0]))


def _in_order(values: np.ndarray, axis: int = 0) -> np.ndarray:
    """*values* summed along *axis* one at a time, in order."""
    return np.cumsum(values, axis=axis).take(-1, axis=axis)


def _gini_gain(codes, y, left_values):
    width = int(codes.max()) + 1
    hist = np.bincount(codes * 2 + y, minlength=2 * width).reshape(width, 2)
    left = hist[list(left_values)].sum(axis=0)
    total = hist.sum(axis=0)
    right = total - left
    n_l, n_r = int(left.sum()), int(right.sum())
    if n_l == 0 or n_r == 0:
        return None
    n = n_l + n_r
    return gini(total) - (n_l / n) * gini(left) - (n_r / n) * gini(right)


def _friedman_gain(codes, y, left_values):
    width = int(codes.max()) + 1
    cnt = np.bincount(codes, minlength=width)
    sums = np.bincount(codes, weights=y, minlength=width)
    idx = list(left_values)
    n_l = int(cnt[idx].sum())
    n_r = int(cnt.sum()) - n_l
    if n_l == 0 or n_r == 0:
        return None
    s_l = float(_in_order(sums[idx]))
    s_r = float(_in_order(sums)) - s_l
    diff = s_l / n_l - s_r / n_r
    return (n_l * n_r / (n_l + n_r)) * diff * diff


def _descend(node: TreeNode, row) -> TreeNode:
    while not node.is_leaf():
        v = int(row[node.feature])
        if v in node.left_values:
            node = node.left
        elif v in node.right_values:
            node = node.right
        else:  # code unseen at fit time: follow the heavier child
            node = node.left if node.left.n >= node.right.n else node.right
    return node


# -- the depth-first grower ---------------------------------------------------


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
    """``x * x`` elementwise, rounded as the scalar ``gini`` rounds it: an
    IEEE product, which does not depend on the C library's ``pow``."""
    return x * x


def _left_sums(plan: _Plan, hist: np.ndarray) -> np.ndarray:
    """Per candidate, *hist* summed over its left codes. Each sum runs over the
    same values, in the same order, as ``_in_order(hist[list(left_values)])``
    in a one-partition scorer, so float sums round the same way."""
    out = np.empty((len(plan.splits),) + hist.shape[1:], dtype=hist.dtype)
    for rows, bins in plan.left_bins:
        out[rows] = _in_order(hist[bins], axis=1)
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
        s[js] = _in_order(per_feature[js, :w], axis=1)
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
        for column, v in zip(TREE_COLUMNS[1:], (-1, -1, -1, [], [], int(idx.size), pos, 0.0)):
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
        trees["left_values"][i], trees["right_values"][i] = list(choice.left_values), list(choice.right_values)
        mask = (codes[idx, choice.feature][:, None] == np.asarray(choice.left_values)).any(axis=1)
        stack += [(idx[~mask], depth + 1, (i, "right")), (idx[mask], depth + 1, (i, "left"))]
    return leaf

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

A fit routes row-index arrays down the tree it grows. Scoring flattens the
trees into node arrays (``TreeTable``) and steps all rows down all trees at
once, one level per step. It truncates float codes toward zero, as ``int()``
does. A code the node never saw at fit time follows the heavier child; when
the children are equally heavy it goes left.
"""

from __future__ import annotations

import functools
from dataclasses import dataclass

import numpy as np

from ..errors import EmptyNodeError


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


def best_split(records, labels, candidate_features, criterion: str = "gini") -> SplitChoice | None:
    """Best categorical split of a node, or None for pure/unsplittable nodes.

    Ties go to the lowest feature index, then to the partition whose left
    side is lexicographically smallest (it always holds the smallest code).
    """
    if criterion == "gini":
        y = np.asarray(labels, dtype=np.int64)
    elif criterion == "friedman-mse":
        y = np.asarray(labels, dtype=np.float64)
    else:
        raise ValueError(f"unknown criterion {criterion!r}")
    feats = np.array(sorted({int(c) for c in candidate_features}), dtype=np.int64)
    if y.size == 0 or np.all(y == y[0]) or feats.size == 0:
        return None
    codes = np.asarray(records)[:, feats].astype(np.int64)
    return _search(codes, y, feats, _width(codes), criterion)


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


def _split_node(node: TreeNode, choice: SplitChoice, codes: np.ndarray, idx: np.ndarray):
    node.feature = choice.feature
    node.left_values = choice.left_values
    node.right_values = choice.right_values
    mask = (codes[idx, choice.feature][:, None] == np.asarray(choice.left_values)).any(axis=1)
    return idx[mask], idx[~mask]


def grow_classification_tree(
    codes: np.ndarray,
    y: np.ndarray,
    min_samples_split: int = 2,
    max_features: int | None = None,
    rng: np.random.Generator | None = None,
) -> TreeNode:
    """Gini tree over an int64 code matrix (see ``category_codes``). With
    *max_features*, each splittable node draws its candidate features from
    *rng*, in preorder."""
    width = _width(codes)
    n_features = codes.shape[1]
    every = np.arange(n_features)

    def build(idx: np.ndarray) -> TreeNode:
        sub_y = y[idx]
        node = TreeNode(n=int(idx.size), pos=int(sub_y.sum()))
        if idx.size < min_samples_split or node.pos in (0, node.n):
            return node
        if max_features is not None and max_features < n_features:
            feats = np.sort(rng.choice(n_features, size=max_features, replace=False))
            node_codes = codes[idx[:, None], feats]
        else:
            feats, node_codes = every, codes[idx]
        choice = _search(node_codes, sub_y, feats, width, "gini")
        if choice is None:
            return node
        left, right = _split_node(node, choice, codes, idx)
        node.left = build(left)
        node.right = build(right)
        return node

    return build(np.arange(codes.shape[0]))


def grow_regression_tree(
    codes: np.ndarray,
    target: np.ndarray,
    max_depth: int,
    min_samples_split: int = 2,
) -> tuple[TreeNode, list[tuple[TreeNode, np.ndarray]]]:
    """Friedman-MSE regression tree over an int64 code matrix; returns the
    root and (leaf, indices) pairs so the caller can set leaf values from the
    samples each leaf captured."""
    width = _width(codes)
    every = np.arange(codes.shape[1])
    leaves: list[tuple[TreeNode, np.ndarray]] = []

    def build(idx: np.ndarray, depth: int) -> TreeNode:
        node = TreeNode(n=int(idx.size))
        choice = None
        sub_target = target[idx]
        if depth < max_depth and idx.size >= min_samples_split and (sub_target != sub_target[0]).any():
            choice = _search(codes[idx], sub_target, every, width, "friedman-mse")
        if choice is None:
            leaves.append((node, idx))
            return node
        left, right = _split_node(node, choice, codes, idx)
        node.left = build(left, depth + 1)
        node.right = build(right, depth + 1)
        return node

    root = build(np.arange(codes.shape[0]), 0)
    return root, leaves


class TreeTable:
    """Trees flattened into node arrays for batch scoring.

    Node ``i`` tests the code of feature ``feature[i]`` and moves to node
    ``next[i, code]``; a leaf moves to itself. Scoring steps every row down
    every tree at once, one level per step, so a batch costs a few array
    operations per level instead of a walk per row and tree. Column
    ``width`` of ``next`` serves codes outside ``[0, width)``; there, as for
    a code the node never saw at fit time, a row follows the heavier child,
    and the left child when the two are equally heavy. ``value`` holds
    ``output(leaf)`` for every leaf.
    """

    def __init__(self, roots: list[TreeNode], output):
        self.nodes: list[TreeNode] = []  # preorder, tree after tree
        starts = []
        self.depth = 0
        for root in roots:
            starts.append(len(self.nodes))
            stack = [(root, 0)]
            while stack:
                node, depth = stack.pop()
                self.nodes.append(node)
                self.depth = max(self.depth, depth)
                if not node.is_leaf():
                    stack += [(node.right, depth + 1), (node.left, depth + 1)]
        index = {id(node): i for i, node in enumerate(self.nodes)}
        inner = [(i, node) for i, node in enumerate(self.nodes) if not node.is_leaf()]
        codes = [c for _, node in inner for c in node.left_values + node.right_values]
        if codes and min(codes) < 0:
            raise ValueError("tree split values must be non-negative codes")
        width = 1 + max(codes, default=0)
        self.feature = np.zeros(len(self.nodes), dtype=np.int64)
        self.next = np.repeat(np.arange(len(self.nodes))[:, None], width + 1, axis=1)
        for i, node in inner:
            left, right = index[id(node.left)], index[id(node.right)]
            self.feature[i] = node.feature
            self.next[i] = right if node.left.n < node.right.n else left
            self.next[i, list(node.left_values)] = left
            self.next[i, list(node.right_values)] = right
        self.value = np.array([output(node) if node.is_leaf() else 0.0 for node in self.nodes])
        self.roots = np.array(starts, dtype=np.int64)

    def leaf_ids(self, codes: np.ndarray) -> np.ndarray:
        """(rows, trees) index into ``nodes`` of the leaf each row reaches."""
        # every code outside [0, width) lands in column width: -1 indexes it too
        codes = codes.clip(-1, self.next.shape[1] - 1)
        node = np.tile(self.roots, (codes.shape[0], 1))
        rows = np.arange(codes.shape[0])[:, None]
        for _ in range(self.depth):
            node = self.next[node, codes[rows, self.feature[node]]]
        return node

    def leaf_values(self, X: np.ndarray) -> np.ndarray:
        """(rows, trees) output of the leaf each row of *X* reaches."""
        return self.value[self.leaf_ids(category_codes(X))]


def victim_fraction(leaf: TreeNode) -> float:
    return leaf.pos / leaf.n


def tree_victim_fraction(node: TreeNode, row) -> float:
    row = np.asarray(row, dtype=np.float64).reshape(1, -1)
    return float(TreeTable([node], victim_fraction).leaf_values(row)[0, 0])


def tree_to_dict(node: TreeNode) -> dict:
    if node.is_leaf():
        return {"n": node.n, "pos": node.pos, "value": node.value}
    return {
        "n": node.n,
        "feature": node.feature,
        "left_values": list(node.left_values),
        "right_values": list(node.right_values),
        "left": tree_to_dict(node.left),
        "right": tree_to_dict(node.right),
    }


def tree_from_dict(doc: dict) -> TreeNode:
    if "feature" not in doc:
        return TreeNode(n=doc["n"], pos=doc.get("pos", 0), value=doc.get("value", 0.0))
    node = TreeNode(
        n=doc["n"],
        feature=doc["feature"],
        left_values=tuple(doc["left_values"]),
        right_values=tuple(doc["right_values"]),
    )
    node.left = tree_from_dict(doc["left"])
    node.right = tree_from_dict(doc["right"])
    return node

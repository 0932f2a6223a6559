"""Reference oracle for the tree learners' split search and routing.

These are the scalar implementations the histogram engine in
``riskminer.classifiers.tree`` replaced, kept verbatim: ``best_split`` scores
one bipartition at a time with ``_gini_gain`` / ``_friedman_gain``, and
``_descend`` walks one row down a tree of ``TreeNode`` objects, the form fitted
trees took before they became per-node lists. The differential tests compare
the engine against them bit for bit; ``flatten`` turns ``TreeNode`` trees into
the engine's tree record.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from riskminer.classifiers.tree import TREE_COLUMNS, SplitChoice, gini


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
    s_l = float(sums[idx].sum())
    s_r = float(sums.sum()) - s_l
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

"""Decision-tree machinery shared by the tree, forest, and boosting learners.

Splits are categorical: a node partitions one feature's observed codes into a
left and a right value set. Classification trees grow on the gini criterion,
regression trees (used for boosting) on the Friedman MSE improvement. Nodes
split as long as they are impure and some feature still varies, so a tree can
work through XOR-like interactions whose first split has zero gain; a pure or
constant-featured node becomes a leaf.

Trees grow one level at a time (``TreeGrower``), and a forest grows all of
its trees at once. A fit first maps each feature's codes to their ranks,
so a histogram is as wide as the most codes any feature
has, whatever their values. Each level keeps a node id for each of its rows.
One ``np.bincount`` keyed by (node, candidate feature, position) counts the
codes of every node of the level, and a weighted one sums their victims
(gini) or targets (Friedman MSE); every bipartition of the present codes of
every (node, feature) pair is then scored in one vectorised pass. The
bipartitions of a presence pattern are listed once and cached, and a grower
that refits the same rows (boosting) reuses a level's candidates when the
splits above it repeat.

Gains are plain IEEE arithmetic (gini squares are products, not the C
library's ``pow``), so a fit does not depend on the C library. A node's
per-code sums add its rows in ascending order and a feature's sums add one
code at a time, as the depth-first grower in ``tests/tree_oracle.py`` does;
numpy adds fewer than eight numbers one by one too, so while every code is
below 7 the grown trees are bit-identical to that reference's.

Ties go to the lowest feature index, then to the partition whose left set is
lexicographically smallest (the left set always holds the smallest present
code). A forest draws each tree's feature subsets from that tree's stream,
level by level, for its splitting nodes in level order.

A learner's fitted trees are one record of per-node lists (``TREE_COLUMNS``)
in the order the nodes grew, so a forest's trees interleave; ``TreeTable``
builds the scoring table from it and needs only each child after its parent,
so the preorder records of older files load too. Model files store the
record. Scoring steps all rows down all trees at once, one level per step.
It truncates float codes toward zero, as ``int()`` does. A code the node
never saw at fit time follows the heavier child; when the children are
equally heavy it goes left.
"""

from __future__ import annotations

import functools
import itertools

import numpy as np

from ..errors import check_shape

# Most histogram cells plus candidate splits scored at once; a level with
# more is scored in runs of nodes, so wide features cost time, not memory.
_LEVEL_CELLS = 1 << 20
_BITS = 1 << np.arange(63)  # a presence pattern's bit of each position
_MEMO_LEVELS = 16  # level layouts a refitting grower keeps


def category_codes(X) -> np.ndarray:
    """Float codes as an int64 matrix, each truncated toward zero as ``int()``
    truncates it; NaN and infinite codes are refused as ``int()`` refuses them."""
    X = np.asarray(X)
    if X.dtype.kind == "f" and not np.isfinite(X).all():
        raise ValueError("category codes must be finite")
    return X.astype(np.int64)


@functools.lru_cache(maxsize=None)
def _partitions(present: int, width: int) -> tuple:
    """The non-trivial bipartitions of the positions whose bits are set in
    *present*, in lexicographic left order (the left side holds the smallest
    position): their (left, right) position tuples and a (partitions, width)
    matrix marking the left positions."""
    first, *rest = [j for j in range(width) if present >> j & 1]
    parts = []
    for mask in range(2 ** len(rest) - 1):
        left = (first,) + tuple(v for b, v in enumerate(rest) if mask >> b & 1)
        right = tuple(v for b, v in enumerate(rest) if not mask >> b & 1)
        parts.append((left, right))
    parts.sort()
    member = np.zeros((len(parts), width), dtype=bool)
    for i, (left, _) in enumerate(parts):
        member[i, list(left)] = True
    return tuple(parts), member


def _gini(n, victims) -> np.ndarray:
    """The gini impurity of nodes of *n* rows that hold *victims*."""
    q0, q1 = (n - victims) / n, victims / n
    return 1.0 - (q0 * q0 + q1 * q1)


@functools.lru_cache(maxsize=1024)
def _grid(patterns: tuple, width: int) -> tuple:
    """The bipartitions of each of a level's presence *patterns* (ascending
    bit masks over positions): a (patterns, most, width) grid of their
    left-position masks, padded with empty masks, their (left, right)
    positions in one list and each pattern's first index into it."""
    tables = [_partitions(key, width) for key in patterns]
    sizes = np.array([len(parts) for parts, _ in tables])
    grid = np.zeros((sizes.size, max(1, sizes.max()), width), dtype=bool)
    for u, (_, member) in enumerate(tables):
        grid[u, : len(member)] = member
    return grid, [p for parts, _ in tables for p in parts], np.cumsum(sizes) - sizes


def _layout(cells, counts, width: int) -> tuple:
    """The candidate splits of ``len(counts)`` nodes, which depend only on
    which rows each node holds.

    *cells* holds, for each of the nodes' rows and each of k candidate
    slots, the histogram cell ``(node * k + slot) * width + position`` of the
    row's code, with the rows in ascending order; *counts* holds each node's
    rows. Candidates lie on a (pairs, most, width) grid of left-position
    masks, (node, slot) pair by pair in tie-break order, padded with empty
    masks.
    """
    k = cells.shape[1]
    pairs = counts.size * k
    flat = cells.ravel()
    cnt = np.bincount(flat, minlength=pairs * width).reshape(pairs, width)
    # each pair's presence pattern; a table over all 2 ** width patterns is
    # smaller than the root's list of the widest feature's bipartitions
    keys = (cnt > 0) @ _BITS[:width]
    patterns = np.flatnonzero(np.bincount(keys, minlength=1 << width))
    grid, parts, offsets = _grid(tuple(patterns.tolist()), width)
    pattern = np.searchsorted(patterns, keys)
    left = grid[pattern]
    n = np.repeat(counts, k)[:, None]
    n_l = (cnt[:, None, :] * left).sum(axis=2)
    n_r = n - n_l
    valid = n_l > 0
    # a padded candidate counts one row on the left, so that nothing divides
    # by zero; it is masked out of the choice
    return flat, k, n, np.where(valid, n_l, 1), n_r, n_l * n_r / n, valid, left, pattern, grid, parts, offsets


def _best_splits(layout: tuple, y, pos, criterion: str):
    """The best split of each node of a ``_layout``, given the targets *y*
    of its rows and the victims *pos* of each node.

    Returns per node the best candidate's slot (-1 when no feature varies),
    the index of its (left, right) positions in the returned list, its
    left-position mask and its gain.
    """
    flat, k, n, n_l, n_r, factor, valid, left, pattern, grid, parts, offsets = layout
    m = n.size // k
    # per cell, the victims (gini) or the target sum (Friedman MSE); a
    # cell's sum adds its rows in ascending order
    weight = np.bincount(flat, weights=np.repeat(y, k), minlength=left.shape[0] * left.shape[2])
    weight = weight.reshape(left.shape[0], left.shape[2])
    if criterion == "gini":
        p = np.repeat(pos, k)[:, None]
        l1 = (weight[:, None, :] * left).sum(axis=2)
        gains = _gini(n, p) - (n_l / n) * _gini(n_l, l1) - (n_r / n) * _gini(n_r, p - l1)
    else:
        # a feature's sums add one code at a time, in code order; a
        # masked-out code adds +0.0, which changes no sum
        s_l = np.where(left, weight[:, None, :], 0.0).cumsum(axis=2)[:, :, -1]
        s_r = weight.cumsum(axis=1)[:, -1:] - s_l
        diff = s_l / n_l - s_r / n_r
        gains = factor * diff * diff  # factor is n_l * n_r / (n_l + n_r)
    # the first maximum of each node: lowest feature, then smallest left set
    score = np.where(valid, gains, -np.inf).reshape(m, -1)
    best = score.argmax(axis=1)
    gain = score.max(axis=1)
    slot, part = np.divmod(best, grid.shape[1])
    u = pattern[np.arange(m) * k + slot]
    return np.where(gain > -np.inf, slot, -1), offsets[u] + part, grid[u, part], gain, parts


# A fitted tree set is one record of per-node lists, each child after its
# parent; ``roots`` holds each tree's first node. An inner node tests
# ``feature`` and sends the codes of ``left_values`` to node ``left`` and those
# of ``right_values`` to node ``right``; a leaf has feature -1, children -1 and
# empty code sets. ``n`` counts the node's training rows, ``pos`` its victims
# (0 in a regression tree) and ``value`` is a regression leaf's output.
TREE_COLUMNS = ("roots", "feature", "left", "right", "left_values", "right_values", "n", "pos", "value")


class TreeGrower:
    """Trees grown level by level on one fit's codes.

    ``grow`` numbers the nodes it creates on from those of earlier calls,
    level after level, a split node's children next to each other in the
    order of their parents; it returns each row's leaf, and ``value`` (a
    regression leaf's output) and ``record`` use the same numbers. With
    *subsets*, tree t of a ``grow`` call splits only on ``subsets[t]``'s
    columns, ranked for ties in that order; the default, one subset of every
    column, serves every tree. With *refits*, ``grow`` is called again and
    again on every row, as boosting does, and the grower keeps the
    candidate layouts of its recent levels (of several trees, their roots'),
    keyed by the splits above them.
    """

    def __init__(self, X, refits: bool = False, subsets=None):
        # each code's position: its rank among the codes its feature takes
        codes = category_codes(X)
        if codes.size and int(codes.min()) < 0:
            raise ValueError("category codes must be non-negative")
        self.positions = np.empty(codes.shape, dtype=np.int64)
        self.codes = []  # per feature, the code at each position
        for j in range(codes.shape[1]):
            present, self.positions[:, j] = np.unique(codes[:, j], return_inverse=True)
            self.codes.append(present)
        self.width = max(map(len, self.codes), default=1)  # the most codes a feature takes
        self.subsets = np.arange(codes.shape[1])[None] if subsets is None else np.array(subsets, dtype=np.int64)
        self.memo = {} if refits else None  # recent levels' layouts, by the splits above them
        self.levels = []  # (feature, split, n, pos, tree) of each grown level
        self.roots, self.parts, self.value = [], [], []  # the splits' (left, right) positions
        self.code_sets = {}  # (left, right) codes of each (split, feature) key that ``record`` met

    def grow(
        self,
        y: np.ndarray,
        criterion: str,
        samples: list | None = None,
        min_samples_split: int = 2,
        max_depth: int | None = None,
        max_features: int | None = None,
        rngs: list | None = None,
    ) -> np.ndarray:
        """Grow one tree per entry of *samples* (row-index arrays) or, without
        them, one tree on every row per row of *y* (a 2-D *y* holds each
        tree's targets), and return the leaf each sampled row reaches.

        A node splits while it holds ``min_samples_split`` rows, lies above
        *max_depth* and its targets vary. With *max_features*, tree t draws
        the candidate features of its splitting nodes from ``rngs[t]``, one
        level at a time.
        """
        gini = criterion == "gini"
        positions, width = self.positions, self.width
        n_features = positions.shape[1]
        memo = self.memo if samples is None else None  # a refit meets the same rows again
        y = np.asarray(y, dtype=np.int64 if gini else np.float64)
        samples = [np.arange(y.shape[-1])] * len(np.atleast_2d(y)) if samples is None else samples
        stack = np.concatenate(samples)
        y = y.ravel() if y.ndim == 2 else y[stack]
        draw = max_features is not None and max_features < n_features
        k = max_features if draw else self.subsets.shape[1]  # candidate slots per node
        counts = np.array([len(s) for s in samples])
        cells = None if draw else self.cells.reshape(len(positions), len(self.subsets), -1)  # node-0 cells per subset
        rows = stack  # the rows of the level's nodes, in ascending stack order
        node = np.repeat(np.arange(counts.size), counts)  # each row's node in the level
        tree = np.arange(counts.size)  # each node's tree
        first = len(self.value)  # the level's first node id
        self.roots += range(first, first + counts.size)
        leaf = np.empty(len(stack), dtype=np.int64)  # each row's leaf
        at_row = np.arange(len(stack))  # each row's place in *leaf*
        key = ()  # the splits so far, which fix the level's rows
        for depth in itertools.count():
            m = counts.size
            sub_y = y[at_row] if at_row.size < y.size else y
            pos = np.bincount(node, weights=sub_y, minlength=m).astype(np.int64) if gini else np.zeros(m, np.int64)
            search = counts >= min_samples_split
            if max_depth is not None and depth >= max_depth:
                search[:] = False
            elif gini:
                search &= (pos > 0) & (pos < counts)
            else:
                ref = np.empty(m)
                ref[node] = sub_y  # some row of each node
                search &= np.bincount(node, weights=sub_y != ref[node], minlength=m) > 0
            feature, split = np.full((2, m), -1)
            member = np.zeros((m, width), dtype=bool)  # each split node's left positions
            if search.any():
                searched, s_rows, s_at, local = np.arange(m), rows, at_row, node
                if not search.all():
                    at = search[node]
                    searched, s_rows, s_at = np.flatnonzero(search), rows[at], at_row[at]
                    local = (np.cumsum(search) - 1)[node[at]]
                if draw:
                    per_tree = np.bincount(tree[searched], minlength=len(rngs)).tolist()
                    keys = np.concatenate([rngs[t].random((e, n_features)) for t, e in enumerate(per_tree) if e])
                    feats = np.sort(np.argpartition(keys, k - 1, axis=1)[:, :k], axis=1)
                    codes = positions[s_rows[:, None], feats[local]]
                    codes += np.arange(k) * width
                    layouts = self._layouts(codes, local, counts[searched])
                else:  # a refit that meets the same rows again reuses their layouts
                    place = tree[searched] if len(self.subsets) > 1 else np.zeros_like(searched)  # each one's subset
                    feats, key = self.subsets[place], (key, search.tobytes())
                    layouts = memo is not None and memo.pop(key, None) or self._layouts(
                        cells[s_rows, place[local]], local, counts[searched])
                    if memo is not None:
                        memo[key] = layouts
                        if len(memo) > _MEMO_LEVELS:
                            del memo[next(iter(memo))]
                for lo, hi, chunk, layout in layouts:
                    nodes = searched[lo:hi]
                    s_y = y if s_at.size == y.size and hi - lo == searched.size else y[s_at[chunk]]
                    slot, chosen, left, _, parts = _best_splits(layout, s_y, pos[nodes], criterion)
                    feature[nodes] = np.where(slot >= 0, feats[lo:hi][np.arange(hi - lo), slot], -1)
                    split[nodes] = len(self.parts) + chosen
                    member[nodes] = left
                    self.parts += parts
            splits = feature >= 0
            inner = np.flatnonzero(splits)
            self.levels.append((feature, split, counts, pos, tree))
            self.value += [0.0] * m
            if inner.size < m:  # the rows of leaves stop here
                at = splits[node]
                leaf[at_row[~at]] = node[~at] + first
                rows, node, at_row = rows[at], node[at], at_row[at]
            if not inner.size:
                return leaf
            go_left = member[node, positions[rows, feature[node]]]
            if memo is not None:
                key = (key, feature.tobytes(), (member @ _BITS[:width]).tobytes())
            memo = memo if len(samples) == 1 else None  # several trees seldom meet their deeper levels again
            # children in level order, each split node's left then its right
            node = (2 * node if inner.size == m else (2 * np.cumsum(splits) - 2)[node]) + ~go_left
            counts = np.bincount(node, minlength=2 * inner.size)
            tree = np.repeat(tree[inner], 2)
            first += m

    @functools.cached_property
    def cells(self) -> np.ndarray:
        """Each row's histogram cells as a row of node 0, tree by tree over its candidate features."""
        k = self.subsets.shape[1]
        return (self.positions[:, self.subsets] + np.arange(k) * self.width).reshape(len(self.positions), -1)

    def _layouts(self, codes, local, counts) -> list:
        """The ``_layout`` of the searched nodes of a level, in runs small
        enough to score at once: (first node, end node, row mask, layout).
        *codes* holds the searched rows' cells as node-0 rows and *local*
        their node among the searched."""
        k, width = codes.shape[1], self.width
        step = max(1, _LEVEL_CELLS // (k * width * (2 + 2 ** (width - 1))))
        runs = []
        for lo in range(0, counts.size, step):
            hi = min(lo + step, counts.size)
            rows = slice(None) if hi - lo == counts.size else (local >= lo) & (local < hi)
            cells = codes[rows]  # the level's own array, or a copy of a run of it
            cells += ((local[rows] - lo) * (k * width))[:, None]
            runs.append((lo, hi, rows, _layout(cells, counts[lo:hi], width)))
        return runs

    def record(self, tree: int | None = None) -> dict:
        """The grown trees as a tree record (see ``TREE_COLUMNS``), the nodes
        numbered as ``grow`` created them. With *tree*, only the trees grown
        at that place of their ``grow`` calls, numbered in the same order,
        each feature by its first place in ``subsets[tree]``."""
        feature, split, n, pos, trees = (np.concatenate(column) for column in zip(*self.levels))
        # the children of a level's split nodes open the next level, in the
        # order of their parents, each left child before its right
        sizes = [level[0].size for level in self.levels]
        ends, splits = np.cumsum(sizes), feature >= 0
        before = np.cumsum(splits) - splits  # the split nodes before each node
        left = np.where(splits, np.repeat(ends - 2 * before[ends - sizes], sizes) + 2 * before, -1)
        roots, value = np.array(self.roots), np.array(self.value)
        if tree is not None:  # a tree's children are its own, so they keep their order
            keep, number = trees == tree, np.cumsum(trees == tree) - 1  # each kept node's new id
            feature, split, n, pos, value, splits = (c[keep] for c in (feature, split, n, pos, value, splits))
            left, roots = np.where(splits, number[left[keep]], -1), number[roots[keep[roots]]]
            place, first = np.full(len(self.codes) + 1, -1), np.unique(self.subsets[tree], return_index=True)
            place[first[0]] = first[1]  # each feature's first place in the subset; a leaf's -1 stays
        # the code sets of each distinct (feature, split), built once per
        # grower; the leaves' key -1 comes first (every tree has a leaf)
        n_features = self.positions.shape[1]
        distinct, sets = np.unique(np.where(splits, split * n_features + feature, -1), return_inverse=True)
        left_values, right_values = np.empty((2, distinct.size), dtype=object)
        left_values[0] = right_values[0] = ()
        for i, key in enumerate(distinct.tolist()[1:], 1):
            if key not in self.code_sets:
                codes, (lp, rp) = self.codes[key % n_features], self.parts[key // n_features]
                self.code_sets[key] = tuple(codes[list(lp)].tolist()), tuple(codes[list(rp)].tolist())
            left_values[i], right_values[i] = self.code_sets[key]
        right = np.where(splits, left + 1, -1)
        feature = feature if tree is None else place[feature]
        columns = (roots, feature, left, right, left_values[sets], right_values[sets], n, pos, value)
        return {column: np.asarray(values).tolist() for column, values in zip(TREE_COLUMNS, columns)}


def _ints(values, name: str, least: int, below: int | None = None) -> np.ndarray:
    array = np.array(values, dtype=np.int64) if set(map(type, values)) <= {int} else None  # a bool is no int
    if array is None or (array < least).any() or below is not None and (array >= below).any():
        raise ValueError(f"tree {name} must be integers in [{least}, {below or 'inf'})")
    return array


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
    parent, a split code that is not an integer >= 0 or that a node lists
    twice or on both sides, a node with more victims than rows) raises
    ValueError.
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
        if (self.pos > self.n).any():
            raise ValueError("a tree node holds more victims than rows")
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
        codes, nodes, child = map(np.concatenate, zip(*sides))
        self.codes = np.array(sorted(set(codes.tolist())), dtype=np.int64)
        self.next = np.repeat(np.arange(size)[:, None], len(self.codes) + 1, axis=1)
        self.next[inner] = np.where(self.n[left] < self.n[right], right, left)[:, None]
        cells = nodes * self.next.shape[1] + np.searchsorted(self.codes, codes)
        listed = np.zeros(self.next.size, dtype=bool)
        listed[cells] = True
        if np.count_nonzero(listed) < len(cells):
            raise ValueError("a tree node lists a split code twice, or on both sides")
        self.next.flat[cells] = child

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

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
that refits every row (boosting) reuses a level's candidates when the splits
above it repeat.

Gains are plain IEEE arithmetic (gini squares are products, not the C
library's ``pow``), so a fit does not depend on the C library. A node's
per-code sums add its rows in ascending order and a feature's sums add one
code at a time, in code order, as the depth-first grower in
``tests/tree_oracle.py`` does, so the grown trees are bit-identical to that
reference's.

Ties go to the lowest feature index, then to the partition whose left set is
lexicographically smallest (the left set always holds the smallest present
code). A forest draws each tree's feature subsets from that tree's stream,
level by level, for its splitting nodes in level order.

A learner's fitted trees are one ``TreeTable`` of per-node arrays in the
order the nodes grew, so a forest's trees interleave; only model files hold
per-node lists (``TREE_COLUMNS``). A fit's arrays and a file's pass one check,
which needs only each child after its parent, so the preorder records of older
files load too. Scoring steps all rows down all trees at once, one level per
step. It truncates float codes toward zero, as ``int()`` does. A code the node
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
_MEMO_LEVELS = 16  # level layouts a grower keeps across refits


def category_codes(X) -> np.ndarray:
    """Float codes as an int64 matrix, each truncated toward zero as ``int()``
    truncates it; NaN and infinite codes are refused as ``int()`` refuses them."""
    X = np.asarray(X)
    if X.dtype.kind == "f" and not np.isfinite(X).all():
        raise ValueError("category codes must be finite")
    return X.astype(np.int64)


@functools.lru_cache(maxsize=None)
def _partitions(present: int, width: int) -> np.ndarray:
    """The non-trivial bipartitions of the positions whose bits are set in
    *present*, in lexicographic left order (the left side holds the smallest
    position), as a (partitions, width) matrix marking their left positions."""
    first, *rest = [j for j in range(width) if present >> j & 1]
    lefts = sorted([first] + [v for b, v in enumerate(rest) if mask >> b & 1] for mask in range(2 ** len(rest) - 1))
    return np.array([[j in left for j in range(width)] for left in lefts], dtype=bool).reshape(-1, width)


def _gini(n, victims) -> np.ndarray:
    """The gini impurity of nodes of *n* rows that hold *victims*."""
    q0, q1 = (n - victims) / n, victims / n
    return 1.0 - (q0 * q0 + q1 * q1)


@functools.lru_cache(maxsize=1024)
def _grid(patterns: tuple, width: int) -> np.ndarray:
    """The bipartitions of each of a level's presence *patterns* (ascending
    bit masks over positions): a (patterns, most, width) grid of their
    left-position masks, padded with empty masks."""
    tables = [_partitions(key, width) for key in patterns]
    grid = np.zeros((len(tables), max([1, *map(len, tables)]), width), dtype=bool)
    for u, member in enumerate(tables):
        grid[u, : len(member)] = member
    return grid


def _layout(cells, counts, width: int) -> tuple:
    """The candidate splits of ``len(counts)`` nodes, which depend only on
    which rows each node holds.

    *cells* holds, for each of the nodes' rows and each of k candidate
    slots, the histogram cell ``(node * k + slot) * width + position`` of the
    row's code, with the rows in ascending order; *counts* holds each node's
    rows. Candidates lie on a (pairs, most, width) grid of left-position
    masks, (node, slot) pair by pair in tie-break order, padded with empty
    masks; ``present`` marks each pair's present positions.
    """
    k = cells.shape[1]
    pairs = counts.size * k
    flat = cells.ravel()
    cnt = np.bincount(flat, minlength=pairs * width).reshape(pairs, width)
    # each pair's presence pattern; a table over all 2 ** width patterns is
    # smaller than the root's list of the widest feature's bipartitions
    present = cnt > 0
    keys = present @ _BITS[:width]
    patterns = np.flatnonzero(np.bincount(keys, minlength=1 << width))
    left = _grid(tuple(patterns.tolist()), width)[np.searchsorted(patterns, keys)]
    n = np.repeat(counts, k)[:, None]
    n_l = (cnt[:, None, :] * left).sum(axis=2)
    n_r = n - n_l
    valid = n_l > 0
    # a padded candidate counts one row on the left, so that nothing divides
    # by zero; it is masked out of the choice
    return flat, k, n, np.where(valid, n_l, 1), n_r, n_l * n_r / n, valid, left, present


def _best_splits(layout: tuple, y, pos, criterion: str):
    """The best split of each node of a ``_layout``, given the targets *y*
    of its rows and the victims *pos* of each node.

    Returns per node the best candidate's slot (-1 when no feature varies),
    the side of each position (1 left, 2 right, 0 where the node has no row
    of that code or does not split) and the gain.
    """
    flat, k, n, n_l, n_r, factor, valid, left, present = layout
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
    slot, part = np.divmod(best, left.shape[1])
    pair, splits = np.arange(m) * k + slot, gain > -np.inf
    side = (2 * present[pair] - left[pair, part]) * splits[:, None]
    return np.where(splits, slot, -1), side.astype(np.int8), gain


# A model file's tree record: per-node lists, each child after its parent;
# ``roots`` holds each tree's first node. An inner node tests ``feature`` and
# sends the codes of ``left_values`` to node ``left`` and those of
# ``right_values`` to node ``right``; a leaf has feature -1, children -1 and
# empty code sets. ``n`` counts the node's training rows, ``pos`` its victims
# (0 in a regression tree) and ``value`` is a regression leaf's output.
TREE_COLUMNS = ("roots", "feature", "left", "right", "left_values", "right_values", "n", "pos", "value")


class TreeGrower:
    """Trees grown level by level on one fit's codes.

    ``grow`` numbers the nodes it creates on from those of earlier calls,
    level after level, a split node's children next to each other in the
    order of their parents; it returns each row's leaf, and ``table`` uses
    the same numbers; ``size`` counts the nodes grown so far. With
    *subsets*, tree t of a ``grow`` call splits only on ``subsets[t]``'s
    columns, ranked for ties in that order; the default, one subset of every
    column, serves every tree. A ``grow`` call that refits every row with one
    target row per tree (a 2-D *y*, no *samples*), as boosting's rounds do,
    keeps the candidate layouts of its recent levels (of several trees,
    their roots'), keyed by the splits above them, for later such calls.
    """

    def __init__(self, X, subsets=None):
        # each code's position: its rank among the codes its feature takes
        codes = category_codes(X)
        if codes.size and int(codes.min()) < 0:
            raise ValueError("category codes must be non-negative")
        self.positions = np.empty(codes.shape, dtype=np.int64)
        for j in range(codes.shape[1]):
            self.positions[:, j] = np.unique(codes[:, j], return_inverse=True)[1]
        self.width = int(self.positions.max(initial=0)) + 1  # the most codes a feature takes
        self.codes = np.zeros((codes.shape[1], self.width), dtype=np.int64)  # each feature's code at each position
        self.codes[np.arange(codes.shape[1]), self.positions] = codes
        self.subsets = np.arange(codes.shape[1])[None] if subsets is None else np.array(subsets, dtype=np.int64)
        self.memo = {}  # recent levels' layouts, by the splits above them
        self.levels = []  # (feature, side, n, pos, tree) of each grown level
        self.roots, self.size = [], 0

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
        y = np.asarray(y, dtype=np.int64 if gini else np.float64)
        memo = self.memo if samples is None and y.ndim == 2 else None  # a refit meets the same rows again
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
        self.roots += range(self.size, self.size + counts.size)
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
            feature = np.full(m, -1)
            side = np.zeros((m, width), dtype=np.int8)  # each split node's side of each position, as ``_best_splits``
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
                    slot, side[nodes], _ = _best_splits(layout, s_y, pos[nodes], criterion)
                    feature[nodes] = np.where(slot >= 0, feats[lo:hi][np.arange(hi - lo), slot], -1)
            splits = feature >= 0
            inner = np.flatnonzero(splits)
            self.levels.append((feature, side, counts, pos, tree))
            if inner.size < m:  # the rows of leaves stop here
                at = splits[node]
                leaf[at_row[~at]] = node[~at] + self.size  # the level's first node id
                rows, node, at_row = rows[at], node[at], at_row[at]
            self.size += m
            if not inner.size:
                return leaf
            go_left = side[node, positions[rows, feature[node]]] == 1
            if memo is not None:
                key = (key, feature.tobytes(), side.tobytes())
            memo = memo if len(samples) == 1 else None  # several trees seldom meet their deeper levels again
            # children in level order, each split node's left then its right
            node = (2 * node if inner.size == m else (2 * np.cumsum(splits) - 2)[node]) + ~go_left
            counts = np.bincount(node, minlength=2 * inner.size)
            tree = np.repeat(tree[inner], 2)

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

    def table(self, tree: int | None = None, value: np.ndarray | None = None) -> TreeTable:
        """The grown trees as a ``TreeTable``, the nodes numbered as ``grow``
        created them, with *value* (one float per grown node; default 0.0) as
        each node's regression output. With *tree*, only the trees grown at
        that place of their ``grow`` calls, numbered in the same order, each
        feature by its place in ``subsets[tree]``."""
        feature, side, n, pos, trees = (np.concatenate(column) for column in zip(*self.levels))
        # the children of a level's split nodes open the next level, in the
        # order of their parents, each left child before its right
        sizes = [level[0].size for level in self.levels]
        ends, splits = np.cumsum(sizes), feature >= 0
        before = np.cumsum(splits) - splits  # the split nodes before each node
        left = np.where(splits, np.repeat(ends - 2 * before[ends - sizes], sizes) + 2 * before, -1)
        roots, value = np.array(self.roots), np.zeros(self.size) if value is None else value
        place = np.append(np.arange(len(self.codes)), -1)  # each feature's number in the table; a leaf's -1 stays
        if tree is not None:  # a tree's children are its own, so they keep their order
            keep, number = trees == tree, np.cumsum(trees == tree) - 1  # each kept node's new id
            feature, side, n, pos, value, splits = (c[keep] for c in (feature, side, n, pos, value, splits))
            left, roots = np.where(splits, number[left[keep]], -1), number[roots[keep[roots]]]
            place[self.subsets[tree]] = np.arange(self.subsets.shape[1])
        nodes, at = np.nonzero(side)  # each code a split node lists, as (node, code, side)
        listed = np.stack([nodes, self.codes[feature[nodes], at], side[nodes, at]])
        return TreeTable(self.subsets.shape[1], roots, place[feature], left, np.where(splits, left + 1, -1), n, pos,
                         value, listed)


def _ints(values, name: str) -> np.ndarray:
    if not set(map(type, values)) <= {int}:  # a bool is no int
        raise ValueError(f"tree {name} must be integers")
    return np.array(values, dtype=np.int64)


class TreeTable:
    """A fitted tree set as arrays, and its scoring.

    ``roots``, ``feature``, ``left``, ``right``, ``n``, ``pos`` and ``value``
    are the columns of ``TREE_COLUMNS``. ``codes`` holds every code that some
    node splits on, in ascending order; node ``i`` sends ``codes[j]`` to its
    left child where ``side[i, j]`` is 1, to its right child where it is 2
    and, where the node does not list it (0), to its heavier child, the left
    one when both are equally heavy. *listed* holds a (node, code, side)
    column per code that a split node lists.

    A fit's arrays and a model file's pass one check: an index outside the
    nodes or the *n_features* features, a child that does not come after its
    parent, a split code below 0 or that a node lists twice or on both sides,
    or a node with more victims than rows raises ValueError.
    """

    def __init__(self, n_features: int, roots, feature, left, right, n, pos, value, listed):
        size, (nodes, codes, sides) = feature.size, listed
        for array, name, least, below in ((roots, "roots", 0, size), (feature, "features", -1, n_features),
                                          (np.append(left, right), "children", -1, size), (n, "row counts", 1, np.inf),
                                          (pos, "victim counts", 0, np.inf), (codes, "split codes", 0, np.inf)):
            if ((array < least) | (array >= below)).any():
                raise ValueError(f"tree {name} must be integers in [{least}, {below})")
        if not roots.size:
            raise ValueError("a tree record holds at least one tree")
        if (pos > n).any():
            raise ValueError("a tree node holds more victims than rows")
        inner = np.flatnonzero(feature >= 0)
        if (left[inner] <= inner).any() or (right[inner] <= inner).any():
            raise ValueError("every tree node must come after its parent")
        vars(self).update(roots=roots, feature=feature, left=left, right=right, n=n, pos=pos, value=value)
        self.codes, columns = np.unique(codes, return_inverse=True)  # without return_inverse it imports numpy.ma
        self.side = np.zeros((size, self.codes.size), dtype=np.int8)
        self.side[nodes, columns] = sides
        if np.count_nonzero(self.side) < codes.size:
            raise ValueError("a tree node lists a split code twice, or on both sides")

    @classmethod
    def from_record(cls, trees: dict, n_features: int) -> TreeTable:
        """The table of a tree record from a model file, which is outside
        input: lists of unequal length and values of the wrong type raise
        ValueError too. Only split nodes' code sets are read."""
        size = len(trees["feature"])
        if any(len(trees[column]) != size for column in TREE_COLUMNS[1:]):
            raise ValueError("tree node lists differ in length")
        roots, feature, left, right, n, pos = (_ints(trees[c], c) for c in TREE_COLUMNS[:4] + TREE_COLUMNS[6:8])
        inner = np.flatnonzero(feature >= 0)
        sets = [trees[column][i] for column in ("left_values", "right_values") for i in inner.tolist()]
        sizes = [len(codes) for codes in sets]
        codes = _ints([c for codes in sets for c in codes], "split codes")
        listed = np.stack([np.repeat(np.tile(inner, 2), sizes), codes, np.repeat(np.repeat([1, 2], inner.size), sizes)])
        return cls(n_features, roots, feature, left, right, n, pos, check_shape("tree values", trees["value"], (size,)),
                   listed)

    def record(self) -> dict:
        """The tree record of a model file: per-node lists, each node's codes
        in ascending order, a leaf's code sets empty."""
        sets = [[self.codes[row == side].tolist() for row in self.side] for side in (1, 2)]
        columns = (self.roots, self.feature, self.left, self.right, *sets, self.n, self.pos, self.value)
        return {name: c if isinstance(c, list) else c.tolist() for name, c in zip(TREE_COLUMNS, columns)}

    @functools.cached_property
    def next(self) -> np.ndarray:
        """(nodes, codes + 1) where each node sends each of ``codes`` and, in the
        last column, every code it does not list; a leaf sends all to itself.
        Kept once built: freeing it at every call raised peak RSS (malloc)."""
        heavier = np.where(self.n[self.left] < self.n[self.right], self.right, self.left)
        heavier = np.where(self.feature >= 0, heavier, np.arange(self.feature.size))
        return np.column_stack([np.choose(self.side, [c[:, None] for c in (heavier, self.left, self.right)]), heavier])

    def __getstate__(self) -> dict:
        return {name: array for name, array in vars(self).items() if name != "next"}  # a pickle holds no step table

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

    def leaf_values(self, X: np.ndarray, output: np.ndarray | None = None) -> np.ndarray:
        """(rows, trees) *output* of the leaf each row of *X* reaches; by default its victim fraction."""
        return (self.pos / self.n if output is None else output)[self.leaf_ids(category_codes(X))]

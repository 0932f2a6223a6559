"""Decision-tree and random-forest learners."""

from __future__ import annotations

import numpy as np

from ..errors import check_ints
from .tree import TreeTable, category_codes, grow, new_trees


class DecisionTreeLearner:
    """Single gini tree, exhaustive best-first splits, unlimited depth."""

    def __init__(self, min_samples_split: int = 2):
        check_ints(2, min_samples_split=min_samples_split)
        self.min_samples_split = min_samples_split

    def fit(self, X: np.ndarray, y: np.ndarray) -> None:
        trees = new_trees()
        grow(trees, category_codes(X), y, "gini", min_samples_split=self.min_samples_split)
        self.load_params(trees, X.shape[1])

    def score_rows(self, X: np.ndarray) -> np.ndarray:
        return self.table.leaf_values(X, self.output)[:, 0]

    def load_params(self, params: dict, n_features: int) -> None:
        self.params = self.trees = params
        self.table = TreeTable(params, n_features)
        self.output = self.table.pos / self.table.n  # each leaf's victim fraction


class RandomForestLearner(DecisionTreeLearner):
    """Bagged gini trees with sqrt-of-feature-count sampling at every split.

    Each tree draws its bootstrap sample and split-time feature subsets from
    an independent stream derived from (seed, tree index), so trees could be
    fit concurrently without changing the result.
    """

    def __init__(self, n_estimators: int = 10, seed: int = 42, min_samples_split: int = 2):
        check_ints(n_estimators=n_estimators)
        super().__init__(min_samples_split)
        check_ints(0, seed=seed)
        self.n_estimators = n_estimators
        self.seed = seed

    def fit(self, X: np.ndarray, y: np.ndarray) -> None:
        codes = category_codes(X)
        n = X.shape[0]
        max_features = max(1, int(np.sqrt(X.shape[1])))
        trees = new_trees()
        for t in range(self.n_estimators):
            rng = np.random.default_rng([self.seed, t])
            sample = rng.integers(0, n, size=n)
            grow(trees, codes[sample], y[sample], "gini", self.min_samples_split, max_features=max_features, rng=rng)
        self.load_params(trees, X.shape[1])

    def score_rows(self, X: np.ndarray) -> np.ndarray:
        # Fraction of trees voting victim; each tree votes its leaf majority
        # with the 0.5 tie going to the victim class.
        return (self.table.leaf_values(X, self.output) >= 0.5).mean(axis=1)

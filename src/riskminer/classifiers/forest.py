"""Decision-tree and random-forest learners."""

from __future__ import annotations

import numpy as np

from ..errors import check_ints
from .tree import TreeGrower, TreeTable


class DecisionTreeLearner:
    """Single gini tree, exhaustive best-first splits, unlimited depth."""

    def __init__(self, min_samples_split: int = 2):
        check_ints(2, min_samples_split=min_samples_split)
        self.min_samples_split = min_samples_split

    def fit(self, X: np.ndarray, y: np.ndarray) -> None:
        grower = TreeGrower(X)
        grower.grow(y, "gini", min_samples_split=self.min_samples_split)
        self.table = grower.table()

    def score_rows(self, X: np.ndarray) -> np.ndarray:
        return self.table.leaf_values(X)[:, 0]

    @property
    def params(self) -> dict:
        return self.table.record()

    def load_params(self, params: dict, n_features: int) -> None:
        self.table = TreeTable.from_record(params, n_features)


class RandomForestLearner(DecisionTreeLearner):
    """Bagged gini trees with sqrt-of-feature-count sampling at every split.

    Each tree draws its bootstrap sample and then, level by level, the
    feature subsets of its splitting nodes from an independent stream
    derived from (seed, tree index); the trees grow together, one level at a
    time, and a tree's draws do not depend on the other trees.
    """

    def __init__(self, n_estimators: int = 10, seed: int = 42, min_samples_split: int = 2):
        check_ints(n_estimators=n_estimators)
        super().__init__(min_samples_split)
        check_ints(0, seed=seed)
        self.n_estimators = n_estimators
        self.seed = seed

    def fit(self, X: np.ndarray, y: np.ndarray) -> None:
        n = X.shape[0]
        rngs = [np.random.default_rng([self.seed, t]) for t in range(self.n_estimators)]
        samples = [rng.integers(0, n, size=n) for rng in rngs]
        grower = TreeGrower(X)
        max_features = max(1, int(np.sqrt(X.shape[1])))
        grower.grow(y, "gini", samples, self.min_samples_split, max_features=max_features, rngs=rngs)
        self.table = grower.table()

    def score_rows(self, X: np.ndarray) -> np.ndarray:
        # Fraction of trees voting victim; each tree votes its leaf majority
        # with the 0.5 tie going to the victim class.
        return (self.table.leaf_values(X) >= 0.5).mean(axis=1)

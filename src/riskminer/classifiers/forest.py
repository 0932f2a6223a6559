"""Decision-tree and random-forest learners."""

from __future__ import annotations

import numpy as np

from .tree import (
    TreeNode,
    TreeTable,
    category_codes,
    grow_classification_tree,
    tree_from_dict,
    tree_to_dict,
    victim_fraction,
)


def _majority_vote(leaf: TreeNode) -> float:
    return 1.0 if victim_fraction(leaf) >= 0.5 else 0.0


class DecisionTreeLearner:
    """Single gini tree, exhaustive best-first splits, unlimited depth.

    The search is deterministic, so the configured seed only exists for
    interface parity with the other learners.
    """

    def __init__(self, min_samples_split: int = 2, seed: int = 22):
        self.min_samples_split = min_samples_split
        self.seed = seed
        self.root: TreeNode | None = None
        self.table: TreeTable | None = None

    def fit(self, X: np.ndarray, y: np.ndarray) -> None:
        self.root = grow_classification_tree(category_codes(X), y, min_samples_split=self.min_samples_split)
        self.table = TreeTable([self.root], victim_fraction)

    def score_rows(self, X: np.ndarray) -> np.ndarray:
        return self.table.leaf_values(X)[:, 0]

    def to_params(self) -> dict:
        return {"tree": tree_to_dict(self.root)}

    @classmethod
    def from_params(cls, params: dict, hyper: dict) -> "DecisionTreeLearner":
        learner = cls(min_samples_split=hyper["min_samples_split"], seed=hyper["seed"])
        learner.root = tree_from_dict(params["tree"])
        learner.table = TreeTable([learner.root], victim_fraction)
        return learner


class RandomForestLearner:
    """Bagged gini trees with sqrt-of-feature-count sampling at every split.

    Each tree draws its bootstrap sample and split-time feature subsets from
    an independent stream derived from (seed, tree index), so trees could be
    fit concurrently without changing the result.
    """

    def __init__(self, n_estimators: int = 10, seed: int = 42, min_samples_split: int = 2):
        self.n_estimators = n_estimators
        self.seed = seed
        self.min_samples_split = min_samples_split
        self.trees: list[TreeNode] = []
        self.table: TreeTable | None = None

    def fit(self, X: np.ndarray, y: np.ndarray) -> None:
        codes = category_codes(X)
        n = X.shape[0]
        max_features = max(1, int(np.sqrt(X.shape[1])))
        self.trees = []
        for t in range(self.n_estimators):
            rng = np.random.default_rng([self.seed, t])
            sample = rng.integers(0, n, size=n)
            self.trees.append(
                grow_classification_tree(
                    codes[sample],
                    y[sample],
                    min_samples_split=self.min_samples_split,
                    max_features=max_features,
                    rng=rng,
                )
            )
        self.table = TreeTable(self.trees, _majority_vote)

    def score_rows(self, X: np.ndarray) -> np.ndarray:
        # Fraction of trees voting victim; each tree votes its leaf majority
        # with the 0.5 tie going to the victim class.
        return self.table.leaf_values(X).sum(axis=1) / len(self.trees)

    def to_params(self) -> dict:
        return {"trees": [tree_to_dict(t) for t in self.trees]}

    @classmethod
    def from_params(cls, params: dict, hyper: dict) -> "RandomForestLearner":
        learner = cls(
            n_estimators=hyper["n_estimators"],
            seed=hyper["seed"],
            min_samples_split=hyper["min_samples_split"],
        )
        learner.trees = [tree_from_dict(doc) for doc in params["trees"]]
        learner.table = TreeTable(learner.trees, _majority_vote)
        return learner

"""Gradient boosting with binomial deviance and shallow regression trees."""

from __future__ import annotations

import numpy as np

from ..errors import SingleClassError
from .linear import sigmoid
from .tree import (
    TreeNode,
    TreeTable,
    category_codes,
    grow_regression_tree,
    tree_from_dict,
    tree_to_dict,
)


def log_loss(y: np.ndarray, prob: np.ndarray) -> float:
    eps = 1e-15
    p = np.clip(prob, eps, 1 - eps)
    return float(-(y * np.log(p) + (1 - y) * np.log(1 - p)).mean())


def _leaf_value(leaf: TreeNode) -> float:
    return leaf.value


class GradientBoostingLearner:
    """Additive model of Friedman-MSE regression trees on deviance residuals.

    The raw score starts at the training prior's log odds; each round fits a
    depth-limited tree to y - p and applies the Newton leaf update scaled by
    the learning rate. Mean training log-loss per round is recorded.
    """

    def __init__(
        self,
        n_estimators: int = 100,
        learning_rate: float = 0.1,
        max_depth: int = 3,
        seed: int = 42,
    ):
        self.n_estimators = n_estimators
        self.learning_rate = learning_rate
        self.max_depth = max_depth
        self.seed = seed
        self.init_score = 0.0
        self.trees: list[TreeNode] = []
        self.table: TreeTable | None = None
        self.train_losses: list[float] = []

    def fit(self, X: np.ndarray, y: np.ndarray) -> None:
        if len(set(y.tolist())) < 2:
            raise SingleClassError("gradient boosting")
        codes = category_codes(X)
        y = y.astype(np.float64)
        prior = float(y.mean())
        self.init_score = float(np.log(prior / (1.0 - prior)))
        raw = np.full(X.shape[0], self.init_score)
        self.trees = []
        self.train_losses = [log_loss(y, sigmoid(raw))]
        for _ in range(self.n_estimators):
            prob = sigmoid(raw)
            residual = y - prob
            root, leaves = grow_regression_tree(codes, residual, max_depth=self.max_depth)
            # the leaves' index sets partition the rows, so step is each row's tree output
            step = np.empty(X.shape[0])
            for leaf, idx in leaves:
                hessian = float((prob[idx] * (1.0 - prob[idx])).sum())
                leaf.value = float(residual[idx].sum()) / max(hessian, 1e-12)
                step[idx] = leaf.value
            self.trees.append(root)
            raw = raw + self.learning_rate * step
            self.train_losses.append(log_loss(y, sigmoid(raw)))
        self.table = TreeTable(self.trees, _leaf_value)

    def raw_scores(self, X: np.ndarray) -> np.ndarray:
        raw = np.full(X.shape[0], self.init_score)
        for step in self.table.leaf_values(X).T:  # tree by tree, in fit order
            raw += self.learning_rate * step
        return raw

    def score_rows(self, X: np.ndarray) -> np.ndarray:
        return sigmoid(self.raw_scores(X))

    def to_params(self) -> dict:
        return {
            "init_score": self.init_score,
            "trees": [tree_to_dict(t) for t in self.trees],
            "train_losses": self.train_losses,
        }

    @classmethod
    def from_params(cls, params: dict, hyper: dict) -> "GradientBoostingLearner":
        learner = cls(
            n_estimators=hyper["n_estimators"],
            learning_rate=hyper["learning_rate"],
            max_depth=hyper["max_depth"],
            seed=hyper["seed"],
        )
        learner.init_score = float(params["init_score"])
        learner.trees = [tree_from_dict(doc) for doc in params["trees"]]
        learner.train_losses = [float(v) for v in params["train_losses"]]
        learner.table = TreeTable(learner.trees, _leaf_value)
        return learner

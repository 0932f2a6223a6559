"""Gradient boosting with binomial deviance and shallow regression trees."""

from __future__ import annotations

import numpy as np

from ..errors import SingleClassError, check_ints, check_numbers
from .linear import sigmoid
from .tree import TREE_COLUMNS, TreeTable, category_codes, grow, new_trees


def log_loss(y: np.ndarray, prob: np.ndarray) -> float:
    eps = 1e-15
    p = np.clip(prob, eps, 1 - eps)
    return float(-(y * np.log(p) + (1 - y) * np.log(1 - p)).mean())


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
    ):
        check_ints(n_estimators=n_estimators, max_depth=max_depth)
        check_numbers(learning_rate=learning_rate)
        self.n_estimators = n_estimators
        self.learning_rate = learning_rate
        self.max_depth = max_depth
        self.init_score = 0.0
        self.trees = new_trees()
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
        self.trees = new_trees()
        self.train_losses = [log_loss(y, sigmoid(raw))]
        for _ in range(self.n_estimators):
            prob = sigmoid(raw)
            residual = y - prob
            leaf = grow(self.trees, codes, residual, "friedman-mse", max_depth=self.max_depth)
            # the leaves partition the rows, so step is each row's tree output
            step = np.empty(X.shape[0])
            for i in set(leaf.tolist()):  # np.unique's first call costs 1.6 MB of RSS
                idx = np.flatnonzero(leaf == i)
                hessian = float((prob[idx] * (1.0 - prob[idx])).sum())
                self.trees["value"][i] = step[idx] = float(residual[idx].sum()) / max(hessian, 1e-12)
            raw = raw + self.learning_rate * step
            self.train_losses.append(log_loss(y, sigmoid(raw)))
        self.table = TreeTable(self.trees)

    def raw_scores(self, X: np.ndarray) -> np.ndarray:
        raw = np.full(X.shape[0], self.init_score)
        for step in self.table.leaf_values(X, self.table.value).T:  # tree by tree, in fit order
            raw += self.learning_rate * step
        return raw

    def score_rows(self, X: np.ndarray) -> np.ndarray:
        return sigmoid(self.raw_scores(X))

    def to_params(self) -> dict:
        return {"init_score": self.init_score, **self.trees, "train_losses": self.train_losses}

    def load_params(self, params: dict) -> None:
        self.init_score = float(params["init_score"])
        self.trees = {column: params[column] for column in TREE_COLUMNS}
        self.train_losses = [float(v) for v in params["train_losses"]]
        self.table = TreeTable(self.trees)

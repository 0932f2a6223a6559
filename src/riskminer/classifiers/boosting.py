"""Gradient boosting with binomial deviance and shallow regression trees."""

from __future__ import annotations

import numpy as np

from ..errors import SingleClassError, check_ints, check_numbers
from .linear import sigmoid
from .tree import TreeTable, category_codes, grow, new_trees


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

    def fit(self, X: np.ndarray, y: np.ndarray) -> None:
        if len(set(y.tolist())) < 2:
            raise SingleClassError("gradient boosting")
        codes = category_codes(X)
        y = y.astype(np.float64)
        prior = float(y.mean())
        init_score = float(np.log(prior / (1.0 - prior)))
        raw = np.full(X.shape[0], init_score)
        trees = new_trees()
        losses = [log_loss(y, sigmoid(raw))]
        for _ in range(self.n_estimators):
            prob = sigmoid(raw)
            residual = y - prob
            leaf = grow(trees, codes, residual, "friedman-mse", max_depth=self.max_depth)
            # the leaves partition the rows, so step is each row's tree output
            step = np.empty(X.shape[0])
            for i in set(leaf.tolist()):  # np.unique's first call costs 1.6 MB of RSS
                idx = np.flatnonzero(leaf == i)
                hessian = float((prob[idx] * (1.0 - prob[idx])).sum())
                trees["value"][i] = step[idx] = float(residual[idx].sum()) / max(hessian, 1e-12)
            raw = raw + self.learning_rate * step
            losses.append(log_loss(y, sigmoid(raw)))
        self.load_params({"init_score": init_score, **trees, "train_losses": losses}, X.shape[1])

    def raw_scores(self, X: np.ndarray) -> np.ndarray:
        raw = np.full(X.shape[0], self.init_score)
        for step in self.table.leaf_values(X, self.table.value).T:  # tree by tree, in fit order
            raw += self.learning_rate * step
        return raw

    def score_rows(self, X: np.ndarray) -> np.ndarray:
        return sigmoid(self.raw_scores(X))

    def load_params(self, params: dict, n_features: int) -> None:
        self.params = params
        self.init_score = float(params["init_score"])
        self.train_losses = [float(v) for v in params["train_losses"]]
        self.table = TreeTable(params, n_features)

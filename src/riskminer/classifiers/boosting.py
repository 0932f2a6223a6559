"""Gradient boosting with binomial deviance and shallow regression trees."""

from __future__ import annotations

import copy

import numpy as np

from ..errors import SingleClassError, check_ints, check_numbers, check_shape
from .linear import sigmoid
from .tree import TreeGrower, TreeTable


def log_loss(y: np.ndarray, prob: np.ndarray) -> np.ndarray:
    eps = 1e-15
    p = np.clip(prob, eps, 1 - eps)
    return -(y * np.log(p) + (1 - y) * np.log(1 - p)).mean(axis=-1)


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
        vars(self).update(vars(self.fit_sets(X, y)[0]))

    def fit_sets(self, X: np.ndarray, y: np.ndarray, columns=None) -> list[GradientBoostingLearner]:
        """A copy of this learner fitted on ``X[:, c]`` for each column list c of *columns*
        (of one length; default: all of X's), boosted in lockstep: a round grows
        each fit's tree in one grower pass, and each comes out as it would alone."""
        if len(set(y.tolist())) < 2:
            raise SingleClassError("gradient boosting")
        grower = TreeGrower(X, subsets=columns)
        y = y.astype(np.float64)
        prior = float(y.mean())
        init_score = float(np.log(prior / (1.0 - prior)))
        raw = np.full((len(grower.subsets), X.shape[0]), init_score)  # (fits, rows)
        prob = sigmoid(raw)
        losses, values = [log_loss(y, prob)], []
        for _ in range(self.n_estimators):
            residual = y - prob
            first = grower.size  # the round's first node
            leaf = grower.grow(residual, "friedman-mse", max_depth=self.max_depth) - first
            # each leaf's Newton step sums its rows' residuals and hessians in
            # row order; an inner node sums none and keeps 0.0, and the
            # round's last node is a leaf
            sums, hessians = (np.bincount(leaf, weights=w.ravel()) for w in (residual, prob * (1.0 - prob)))
            steps = sums / np.maximum(hessians, 1e-12)
            values.append(steps)
            raw = raw + self.learning_rate * steps[leaf].reshape(raw.shape)
            prob = sigmoid(raw)
            losses.append(log_loss(y, prob))
        value, losses = np.concatenate(values), np.column_stack(losses)  # losses: (fits, rounds + 1)
        fits = [copy.copy(self) for _ in grower.subsets]
        for t, fit in enumerate(fits):
            fit.init_score, fit.table, fit.train_losses = init_score, grower.table(t, value), losses[t]
        return fits

    def raw_scores(self, X: np.ndarray) -> np.ndarray:
        raw = np.full(X.shape[0], self.init_score)
        for step in self.table.leaf_values(X, self.table.value).T:  # tree by tree, in fit order
            raw += self.learning_rate * step
        return raw

    def score_rows(self, X: np.ndarray) -> np.ndarray:
        return sigmoid(self.raw_scores(X))

    @property
    def params(self) -> dict:
        return {"init_score": self.init_score, **self.table.record(), "train_losses": self.train_losses.tolist()}

    def load_params(self, params: dict, n_features: int) -> None:
        self.init_score = float(check_shape("init_score", params["init_score"], ()))
        self.train_losses = check_shape("train_losses", params["train_losses"], (None,))
        self.table = TreeTable.from_record(params, n_features)

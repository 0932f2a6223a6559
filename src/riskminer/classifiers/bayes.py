"""Gaussian naive Bayes over the integer feature codes."""

from __future__ import annotations

import numpy as np

from ..errors import check_numbers


class GaussianNBLearner:
    """Per-class, per-feature Gaussians with class-frequency priors.

    Every variance is floored by var_smoothing times the largest overall
    feature variance, which keeps constant features finite. Tolerates
    single-class training data (the posterior is then constant).
    """

    def __init__(self, var_smoothing: float = 1e-9):
        check_numbers(var_smoothing=var_smoothing)
        self.var_smoothing = var_smoothing
        self.classes: list[int] = []
        self.log_prior: np.ndarray | None = None
        self.theta: np.ndarray | None = None  # [class, feature] means
        self.var: np.ndarray | None = None

    def fit(self, X: np.ndarray, y: np.ndarray) -> None:
        self.classes = sorted(set(int(v) for v in y))
        eps = self.var_smoothing * float(X.var(axis=0).max()) if X.size else self.var_smoothing
        theta, var, priors = [], [], []
        for c in self.classes:
            rows = X[y == c]
            theta.append(rows.mean(axis=0))
            var.append(rows.var(axis=0) + eps)
            priors.append(rows.shape[0] / X.shape[0])
        self.theta = np.asarray(theta)
        self.var = np.asarray(var)
        self.log_prior = np.log(np.asarray(priors))

    def _joint_log_likelihood(self, X: np.ndarray) -> np.ndarray:
        out = np.empty((X.shape[0], len(self.classes)))
        for k in range(len(self.classes)):
            log_det = np.log(2.0 * np.pi * self.var[k]).sum()
            maha = ((X - self.theta[k]) ** 2 / self.var[k]).sum(axis=1)
            out[:, k] = self.log_prior[k] - 0.5 * (log_det + maha)
        return out

    def score_rows(self, X: np.ndarray) -> np.ndarray:
        # Normalized posterior probability of the victim class.
        jll = self._joint_log_likelihood(X)
        top = jll.max(axis=1, keepdims=True)
        posterior = np.exp(jll - top)
        posterior /= posterior.sum(axis=1, keepdims=True)
        if 1 not in self.classes:
            return np.zeros(X.shape[0])
        if 0 not in self.classes:
            return np.ones(X.shape[0])
        return posterior[:, self.classes.index(1)]

    def to_params(self) -> dict:
        return {
            "classes": self.classes,
            "log_prior": self.log_prior.tolist(),
            "theta": self.theta.tolist(),
            "var": self.var.tolist(),
        }

    def load_params(self, params: dict) -> None:
        self.classes = [int(c) for c in params["classes"]]
        self.log_prior = np.asarray(params["log_prior"], dtype=np.float64)
        self.theta = np.asarray(params["theta"], dtype=np.float64)
        self.var = np.asarray(params["var"], dtype=np.float64)

"""Gaussian naive Bayes over the integer feature codes."""

from __future__ import annotations

import numpy as np

from ..errors import check_numbers, check_shape


class GaussianNBLearner:
    """Per-class, per-feature Gaussians with class-frequency priors.

    Every variance is floored by var_smoothing times the largest overall
    feature variance, or by var_smoothing itself when every feature is
    constant, which keeps constant features finite. Tolerates
    single-class training data (the posterior is then constant).
    """

    def __init__(self, var_smoothing: float = 1e-9):
        check_numbers(var_smoothing=var_smoothing)
        self.var_smoothing = var_smoothing

    def fit(self, X: np.ndarray, y: np.ndarray) -> None:
        classes = sorted(set(int(v) for v in y))
        spread = float(X.var(axis=0).max()) if X.size else 0.0
        eps = self.var_smoothing * spread if spread > 0 else self.var_smoothing
        theta, var, priors = [], [], []
        for c in classes:
            rows = X[y == c]
            theta.append(rows.mean(axis=0))
            var.append(rows.var(axis=0) + eps)
            priors.append(rows.shape[0] / X.shape[0])
        self.load_params({"classes": classes, "log_prior": np.log(np.asarray(priors)), "theta": np.asarray(theta),
                          "var": np.asarray(var)}, X.shape[1])

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

    def load_params(self, params: dict, n_features: int) -> None:
        if params["classes"] not in ([0], [1], [0, 1]):
            raise ValueError(f"classes must be [0], [1] or [0, 1], got {params['classes']!r}")
        self.params = params
        self.classes = [int(c) for c in params["classes"]]
        c = len(self.classes)
        self.log_prior = check_shape("log_prior", params["log_prior"], (c,))
        self.theta = check_shape("theta", params["theta"], (c, n_features))  # [class, feature] means
        self.var = check_shape("var", params["var"], (c, n_features))
        if (self.var <= 0).any():
            raise ValueError("var holds a value that is not positive")

"""Polynomial-kernel support vector classifier trained with SMO."""

from __future__ import annotations

import numpy as np

from ..errors import SingleClassError, check_ints, check_numbers, check_shape
from .linear import sigmoid


class PolySVCLearner:
    """Soft-margin SVC with kernel (gamma * <x, x'> + coef0) ** degree.

    gamma="scale" resolves to 1 / (n_features * X.var()). Training is
    sequential minimal optimization: sweep the examples, pair each KKT
    violator with the viable partner of largest error gap, and solve the
    two-variable subproblem analytically. A sweep with no updates certifies
    the KKT conditions within `tol`; `max_passes` bounds the sweep count and
    hitting it leaves a non-convergence warning on the model.
    """

    def __init__(
        self,
        C: float = 1.0,
        degree: int = 3,
        coef0: float = 0.0,
        gamma="scale",
        tol: float = 1e-3,
        max_passes: int = 10_000,
    ):
        check_numbers(C=C, tol=tol)
        if gamma != "scale":
            check_numbers(gamma=gamma)
        check_numbers(False, coef0=coef0)
        check_ints(degree=degree, max_passes=max_passes)
        self.C = C
        self.degree = degree
        self.coef0 = coef0
        self.gamma = gamma
        self.tol = tol
        self.max_passes = max_passes

    def _resolve_gamma(self, X: np.ndarray) -> float:
        if self.gamma == "scale":
            var = float(X.var())
            return 1.0 / (X.shape[1] * var) if var > 0 else 1.0
        return float(self.gamma)

    def _kernel(self, A: np.ndarray, B: np.ndarray, gamma: float | None = None) -> np.ndarray:
        # in place: the n x n kernel of a fit is the largest array of a run
        K = A @ B.T
        K *= self.gamma_value if gamma is None else gamma
        K += self.coef0
        K **= self.degree
        return K

    def fit(self, X: np.ndarray, y: np.ndarray) -> None:
        if len(set(y.tolist())) < 2:
            raise SingleClassError("support vector classifier")
        gamma = self._resolve_gamma(X)
        sign = np.where(y == 1, 1.0, -1.0)
        n = X.shape[0]
        C = self.C
        K = self._kernel(X, X, gamma)
        diag = np.diag(K).copy()
        alpha = np.zeros(n)
        b = 0.0
        fx = np.zeros(n)  # decision values sum_j alpha_j y_j K[j, i] + b
        min_step = 1e-5

        converged = False
        for _ in range(self.max_passes):
            changed = 0
            for i in range(n):
                err_i = fx[i] - sign[i]
                r = sign[i] * err_i
                if not ((r < -self.tol and alpha[i] < C) or (r > self.tol and alpha[i] > 0)):
                    continue
                # Vectorized partner viability: box width, curvature, and a
                # minimum step after clipping; choose the viable partner with
                # the largest error gap.
                errs = fx - sign
                gap = err_i - errs
                same = sign == sign[i]
                low = np.where(same, np.maximum(0.0, alpha[i] + alpha - C), np.maximum(0.0, alpha - alpha[i]))
                high = np.where(same, np.minimum(C, alpha[i] + alpha), np.minimum(C, C + alpha - alpha[i]))
                eta = 2.0 * K[i] - diag[i] - diag
                with np.errstate(divide="ignore", invalid="ignore"):
                    raw = alpha - sign * gap / eta
                clipped = np.clip(raw, low, high)
                viable = (eta < 0) & (high > low) & (np.abs(clipped - alpha) >= min_step)
                viable[i] = False
                if not viable.any():
                    continue
                j = int(np.argmax(np.where(viable, np.abs(gap), -1.0)))
                a_i_old, a_j_old = alpha[i], alpha[j]
                a_j = float(clipped[j])
                a_i = a_i_old + sign[i] * sign[j] * (a_j_old - a_j)
                d_i = (a_i - a_i_old) * sign[i]
                d_j = (a_j - a_j_old) * sign[j]
                err_j = errs[j]
                b1 = b - err_i - d_i * K[i, i] - d_j * K[i, j]
                b2 = b - err_j - d_i * K[i, j] - d_j * K[j, j]
                if 0 < a_i < C:
                    new_b = b1
                elif 0 < a_j < C:
                    new_b = b2
                else:
                    new_b = (b1 + b2) / 2.0
                fx += d_i * K[i] + d_j * K[j] + (new_b - b)
                alpha[i], alpha[j], b = a_i, a_j, new_b
                changed += 1
            if changed == 0:
                converged = True
                break

        keep = alpha > 1e-12
        self.alphas_ = alpha  # the full alpha vector, kept for diagnostics
        # dual_coef holds alpha_i * y_i of each support vector
        self.load_params({"support_vectors": X[keep], "dual_coef": alpha[keep] * sign[keep], "intercept": b,
                          "gamma_value": gamma, "converged": converged}, X.shape[1])

    def decision_values(self, X: np.ndarray) -> np.ndarray:
        return self._kernel(X, self.support_vectors) @ self.dual_coef + self.intercept

    def score_rows(self, X: np.ndarray) -> np.ndarray:
        return sigmoid(self.decision_values(X))

    def load_params(self, params: dict, n_features: int) -> None:
        self.params = params
        vectors = params["support_vectors"]
        vectors = vectors if len(vectors) else np.empty((0, n_features))  # an empty list holds no vector
        self.support_vectors = check_shape("support_vectors", vectors, (None, n_features))
        self.dual_coef = check_shape("dual_coef", params["dual_coef"], (len(self.support_vectors),))
        self.intercept = float(params["intercept"])
        self.gamma_value = float(params["gamma_value"])
        self.converged = bool(params["converged"])

"""L2-regularized logistic regression fitted by damped Newton steps.

The objective is strictly convex in at most a few dozen parameters, so each
step solves the full (features + 1)-square Newton system; a fit on the
paper's 26 features takes about ten steps. ``max_iter`` counts Newton steps.
"""

from __future__ import annotations

import math

import numpy as np

from ..errors import SingleClassError, check_flag, check_ints, check_numbers, check_shape


def sigmoid(z):
    out = np.empty_like(z, dtype=np.float64)
    pos = z >= 0
    out[pos] = 1.0 / (1.0 + np.exp(-z[pos]))
    ez = np.exp(z[~pos])
    out[~pos] = ez / (1.0 + ez)
    return out


def softplus_change(u, delta) -> float:
    """sum(log(1 + exp(u + delta)) - log(1 + exp(u))), row by row in a form
    that keeps its relative precision when *delta* is tiny: the difference
    of the two rounded sums loses the last Newton steps' decrease, which is
    smaller than the sums' rounding on a few thousand rows. A row whose
    |delta| overflows exp reads +inf, so the step test halves that step."""
    out = np.empty_like(u)
    low = u <= 0
    with np.errstate(over="ignore", invalid="ignore"):
        out[low] = np.log1p(sigmoid(u[low]) * np.expm1(delta[low]))
        high = ~low
        out[high] = delta[high] + np.log1p(sigmoid(-u[high]) * np.expm1(-delta[high]))
    return math.fsum(out.tolist())


class LogisticLearner:
    """Minimizes sum-form negative log-likelihood + ||w||^2 / (2C).

    The bias is unpenalized. Each iteration is one damped Newton step on
    [w, b]: the Hessian is A^T diag(p(1-p)) A over A = [X, 1], plus 1/C on
    the weight diagonal, and the step is halved until the objective falls
    by an Armijo fraction of the predicted decrease. ``objective_path``
    starts at the objective of the zero model and adds the change of each
    accepted step, so it never increases. Training stops when the gradient
    norm is at most `tol` and the Newton decrement puts the objective within
    1e-10 of its minimum, relative to it, or the last step lowered it by at
    most 1e-10 of it, or no step lowers it any more in float precision.
    Otherwise it stops after `max_iter` Newton steps and the model carries a
    non-convergence warning instead of failing.
    """

    def __init__(self, C: float = 1.0, max_iter: int = 1000, tol: float = 1e-6):
        check_numbers(C=C, tol=tol)
        check_ints(max_iter=max_iter)
        self.C = C
        self.max_iter = max_iter
        self.tol = tol

    def objective(self, X, y, w, b):
        # log(1 + exp(u)) per row, summed exactly: every term is positive,
        # so there is none of the cancellation of sum(log(1 + exp(z))) - y @ z
        # near a separating fit, where both sums are large
        z = X @ w + b
        nll = math.fsum(np.logaddexp(0.0, np.where(y == 1, -z, z)).tolist())
        return nll + (w @ w) / (2.0 * self.C)

    def gradient(self, X, y, w, b):
        residual = sigmoid(X @ w + b) - y
        return X.T @ residual + w / self.C, float(residual.sum())

    def fit(self, X: np.ndarray, y: np.ndarray) -> None:
        if len(set(y.tolist())) < 2:
            raise SingleClassError("logistic regression")
        y = y.astype(np.float64)
        A = np.hstack([X, np.ones((X.shape[0], 1))])
        penalty = np.full(A.shape[1], 1.0 / self.C)
        penalty[-1] = 0.0
        # a row's loss is log(1 + exp(u)) with u = -z for victims, z otherwise
        sign = np.where(y == 1, -1.0, 1.0)
        w = np.zeros(X.shape[1])
        b = 0.0
        obj = self.objective(X, y, w, b)
        self.objective_path = [obj]
        converged = False
        settled = False  # the last step lowered the objective by at most 1e-10 of it
        for _ in range(self.max_iter):
            z = X @ w + b
            p = sigmoid(z)
            residual = p - y  # the gradient as ``gradient`` computes it, from this step's scores
            grad = np.append(X.T @ residual + w / self.C, float(residual.sum()))
            hessian = (A.T * (p * (1.0 - p))) @ A
            hessian[np.diag_indices_from(hessian)] += penalty
            direction = np.linalg.solve(hessian, grad)
            decrease = float(grad @ direction)
            # the objective lies about decrease / 2 above its minimum; on
            # separable data a small gradient alone can leave it far above.
            # Near a separating fit with a weak penalty the objective is
            # tiny, the gradient sits at its rounding floor and the
            # decrement is rounding noise above 1e-10 of it; there a step
            # that barely moved the objective is the same news.
            small_gradient = bool(np.sqrt(grad @ grad) <= self.tol)
            if small_gradient and (decrease <= 1e-10 * obj or settled):
                converged = True
                break
            u, slope = sign * z, sign * (A @ direction)
            dw = direction[:-1]
            step = 1.0
            while step > 1e-14:
                # ||w - step dw||^2 - ||w||^2 = -step dw . (2w - step dw)
                penalty_change = -step * float(dw @ (2.0 * w - step * dw)) / (2.0 * self.C)
                change = softplus_change(u, -step * slope) + penalty_change
                if change <= -1e-4 * step * decrease:
                    break
                step *= 0.5
            else:
                # no descent step within float precision: with a small
                # gradient that is the optimum as far as floats can tell
                converged = small_gradient
                break
            settled = change >= -1e-10 * obj
            w, b, obj = w - step * dw, b - step * float(direction[-1]), obj + change
            self.objective_path.append(obj)
        self.load_params({"weights": w, "bias": b, "converged": converged}, X.shape[1])

    def score_rows(self, X: np.ndarray) -> np.ndarray:
        return sigmoid(X @ self.weights + self.bias)

    def load_params(self, params: dict, n_features: int) -> None:
        self.params = params
        self.weights = check_shape("weights", params["weights"], (n_features,))
        self.bias = float(check_shape("bias", params["bias"], ()))
        self.converged = check_flag("converged", params["converged"])

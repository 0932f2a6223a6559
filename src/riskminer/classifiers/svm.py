"""Polynomial-kernel support vector classifier trained with second-order SMO."""

from __future__ import annotations

import numpy as np

from ..errors import SingleClassError, check_flag, check_ints, check_numbers, check_shape
from .linear import sigmoid

KERNEL_CACHE_MIB = 16  # the kernel rows one fit may hold, as LIBSVM's cache_size


def _poly(dots: np.ndarray, gamma: float, coef0: float, degree: int) -> np.ndarray:
    """The kernel values (gamma * dots + coef0) ** degree, in place in *dots*."""
    dots *= gamma
    dots += coef0
    dots **= degree
    return dots


class KernelRows:
    """A first-in first-out cache of the kernel rows of *rows*, LIBSVM's
    kernel cache (Chang & Lin 2011, section 5.1): `cap` slots of one row
    each, with `owner` mapping a row to its slot (-1 when not held) and
    `held` a slot to its row. A row is computed on a miss into the slot
    filled longest ago, by the same `_poly` as `PolySVCLearner._kernel`; on
    integer codes every dot product is exact, so it has the bits of that row
    of the full kernel. `diag` holds the kernel's diagonal. A returned row
    stays valid until the next fetch.
    """

    def __init__(self, rows: np.ndarray, gamma: float, coef0: float, degree: int):
        m = len(rows)
        cap = max(1, min(m, int(KERNEL_CACHE_MIB * 2**20) // (8 * m)))
        self.rows, self.params = rows, (gamma, coef0, degree)
        self.slots = np.empty((cap, m))
        self.owner = np.full(m, -1)
        self.held = np.full(cap, -1)
        self.filled = 0  # misses so far; the next miss fills slot filled % cap
        self.diag = _poly(np.einsum("ij,ij->i", rows, rows), *self.params)

    def __getitem__(self, i: int) -> np.ndarray:
        s = self.owner[i]
        if s < 0:
            s = self.filled % len(self.slots)
            self.filled += 1
            if self.held[s] >= 0:
                self.owner[self.held[s]] = -1
            self.owner[i], self.held[s] = s, i
            _poly(np.matmul(self.rows, self.rows[i], out=self.slots[s]), *self.params)
        return self.slots[s]


class PolySVCLearner:
    """Soft-margin SVC with kernel (gamma * <x, x'> + coef0) ** degree.

    gamma="scale" resolves to 1 / (n_features * X.var()). Training solves the
    dual by SMO with LIBSVM's second-order working-set selection (Fan, Chen
    & Lin 2005), without shrinking: each iteration pairs the maximal KKT
    violator with the partner of largest second-order gain and solves the
    two-variable subproblem analytically. Identical (row, label) pairs share
    one dual variable bounded by C times their count. The solver reads the
    kernel a row at a time from a `KernelRows` cache of at most
    `KERNEL_CACHE_MIB` MiB (every row while there are up to about 1,450
    distinct rows), never the whole n x n kernel. Training stops when
    the maximal violating pair's gap is below `tol`, which certifies the KKT
    conditions within `tol`; `max_passes` caps the iterations at
    `max_passes` times the training rows, and hitting the cap leaves a
    non-convergence warning on the model.
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
        return _poly(A @ B.T, self.gamma_value if gamma is None else gamma, self.coef0, self.degree)

    def fit(self, X: np.ndarray, y: np.ndarray) -> None:
        if len(set(y.tolist())) < 2:
            raise SingleClassError("support vector classifier")
        gamma = self._resolve_gamma(X)
        # identical (row, label) pairs have identical kernel columns, so the
        # dual depends only on each group's alpha sum: one variable per group,
        # stood for by its first row
        first, inverse, counts = np.unique(np.column_stack([X, y]), axis=0, return_index=True,
                                           return_inverse=True, return_counts=True)[1:]
        rows, sign, bound = X[first], np.where(y[first] == 1, 1.0, -1.0), self.C * counts
        K = KernelRows(rows, gamma, self.coef0, self.degree)
        diag = K.diag
        alpha = np.zeros(len(rows))
        F = sign.copy()  # -y * G for the dual gradient G = Q alpha - 1, Q = K * y y^T
        up, low = sign > 0, sign < 0  # where y * alpha can rise, and where it can fall
        converged = False
        for _ in range(self.max_passes * len(X)):
            i = int(np.argmax(np.where(up, F, -np.inf)))
            F_low = np.where(low, F, np.inf)
            if F[i] - F_low.min() < self.tol:
                converged = True
                break
            # j maximizes the second-order gain b^2 / a of moving along (i, j)
            gain = F[i] - F_low
            np.maximum(gain, 0.0, out=gain)
            K_i = K[i]
            curv = K_i * -2.0
            curv += diag
            curv += diag[i]
            np.maximum(curv, 1e-12, out=curv)
            gain *= gain
            gain /= curv
            j = int(np.argmax(gain))
            # raise y_i alpha_i and lower y_j alpha_j by the same step, clipped
            # to both boxes; a clipped variable lands exactly on its bound
            cap_i = bound[i] - alpha[i] if sign[i] > 0 else alpha[i]
            cap_j = alpha[j] if sign[j] > 0 else bound[j] - alpha[j]
            step = min((F[i] - F[j]) / curv[j], cap_i, cap_j)
            a_i = alpha[i] + sign[i] * step if step < cap_i else (bound[i] if sign[i] > 0 else 0.0)
            a_j = alpha[j] - sign[j] * step if step < cap_j else (0.0 if sign[j] > 0 else bound[j])
            F -= K_i * (sign[i] * (a_i - alpha[i]))
            F -= K[j] * (sign[j] * (a_j - alpha[j]))
            alpha[i], alpha[j] = a_i, a_j
            for t in (i, j):
                below, above = alpha[t] < bound[t], alpha[t] > 0
                up[t], low[t] = (below, above) if sign[t] > 0 else (above, below)
        free = up & low
        # LIBSVM's rho, negated: the mean over free variables, else the midpoint
        b = float(F[free].mean()) if free.any() else float(F[up].max() + F[low].min()) / 2.0
        keep = alpha > 1e-12
        # per training row, a group's alpha split evenly: as C times its share
        # of the bound, a group at its bound gives each of its rows exactly C
        self.alphas_ = (self.C * (alpha / bound))[inverse.reshape(-1)]
        # dual_coef holds alpha_i * y_i of each support vector
        self.load_params({"support_vectors": rows[keep], "dual_coef": alpha[keep] * sign[keep], "intercept": b,
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
        self.intercept = float(check_shape("intercept", params["intercept"], ()))
        self.gamma_value = float(check_shape("gamma_value", params["gamma_value"], ()))
        self.converged = check_flag("converged", params["converged"])

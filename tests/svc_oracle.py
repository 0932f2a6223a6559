"""Reference oracles for the support vector classifier's solver.

``FullKernelSMO`` is ``PolySVCLearner`` with the ``fit`` it had before its
kernel rows came from a ``KernelRows`` cache, kept verbatim: the same
second-order SMO over the whole kernel of the distinct rows, built at once.
On integer codes the cached solver must match it bit for bit.

``SweepSMO`` is ``PolySVCLearner`` with the sequential minimal optimization
``fit`` that the second-order working-set solver in
``riskminer.classifiers.svm`` replaced, kept verbatim: sweep the examples,
pair each KKT violator with the viable partner of largest error gap, and
solve the two-variable subproblem analytically, one variable per training
row. A sweep with no updates certifies the KKT conditions within ``tol``;
``max_passes`` bounds the sweep count. The property tests compare the
solver's dual objective and predictions against it.
"""

from __future__ import annotations

import numpy as np

from riskminer.classifiers.svm import PolySVCLearner
from riskminer.errors import SingleClassError


class FullKernelSMO(PolySVCLearner):
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
        K = self._kernel(rows, rows, gamma)
        diag = np.diag(K).copy()
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
            curv = K[i] * -2.0
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
            F -= K[i] * (sign[i] * (a_i - alpha[i]))
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


class SweepSMO(PolySVCLearner):
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

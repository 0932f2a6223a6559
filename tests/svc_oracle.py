"""Reference oracle for the support vector classifier's solver.

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

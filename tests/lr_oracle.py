"""Reference oracle for logistic regression's solver.

``GradientDescentLogistic`` is ``LogisticLearner`` with the batch
gradient-descent ``fit`` that the damped Newton solver in
``riskminer.classifiers.linear`` replaced, kept verbatim: steepest descent on
the same objective with Armijo backtracking. The property tests compare the
Newton solver's final objective against it.
"""

from __future__ import annotations

import numpy as np

from riskminer.classifiers.linear import LogisticLearner
from riskminer.errors import SingleClassError


class GradientDescentLogistic(LogisticLearner):
    def fit(self, X: np.ndarray, y: np.ndarray) -> None:
        if len(set(y.tolist())) < 2:
            raise SingleClassError("logistic regression")
        y = y.astype(np.float64)
        w = np.zeros(X.shape[1])
        b = 0.0
        obj = self.objective(X, y, w, b)
        self.objective_path = [obj]
        self.converged = False
        for _ in range(self.max_iter):
            gw, gb = self.gradient(X, y, w, b)
            norm_sq = float(gw @ gw) + gb * gb
            if np.sqrt(norm_sq) <= self.tol:
                self.converged = True
                break
            step = 1.0
            while step > 1e-14:
                cand_w = w - step * gw
                cand_b = b - step * gb
                cand_obj = self.objective(X, y, cand_w, cand_b)
                if cand_obj <= obj - 1e-4 * step * norm_sq:
                    break
                step *= 0.5
            else:
                break  # no descent step found within float precision
            w, b, obj = cand_w, cand_b, cand_obj
            self.objective_path.append(obj)
        self.weights, self.bias = w, b

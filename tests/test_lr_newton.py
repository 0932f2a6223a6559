"""The damped Newton solver for logistic regression against the gradient
descent it replaced (kept in ``lr_oracle``) and against scipy's L-BFGS-B on
the same objective, plus the solver warning in the pipeline report."""

from __future__ import annotations

import json

import numpy as np
import pytest
from hypothesis import assume, example, given, settings
from hypothesis import strategies as st

from lr_oracle import GradientDescentLogistic
from riskminer.classifiers.linear import LogisticLearner, softplus_change
from riskminer.pipeline import config_from_dict, emit_report, run_pipeline


@st.composite
def lr_problems(draw):
    """Code matrices of width 1-27 over codes 0-4 with labels that are
    random, or split by a random hyperplane (linearly separable), and an L2
    strength C log-uniform in [1e-2, 1e12]."""
    width = draw(st.integers(1, 27))
    n = draw(st.integers(4, 40))
    seed = draw(st.integers(0, 2**32 - 1))
    rng = np.random.default_rng(seed)
    X = rng.integers(0, 5, size=(n, width)).astype(np.float64)
    if draw(st.booleans()):
        margin = X @ rng.normal(size=width)
        y = (margin > np.median(margin)).astype(np.int64)
    else:
        y = rng.integers(0, 2, size=n)
    assume(0 < y.sum() < n)
    C = 10.0 ** draw(st.floats(-2.0, 12.0))
    return X, y, C


def _problem(rows, labels, C):
    return np.array(rows, dtype=np.float64), np.array(labels), C


@settings(max_examples=60, deadline=None)
@given(lr_problems())
# separable, weak penalty: the gradient falls below tol while the objective
# is still over 10 % above its minimum; only the Newton decrement shows it
@example(_problem(
    [[1, 4, 3, 3, 2, 2, 2, 2, 2, 1, 2, 4, 4, 2, 4, 1, 0, 1, 3],
     [3, 3, 1, 0, 3, 2, 0, 2, 2, 4, 0, 1, 2, 2, 3, 0, 0, 0, 0],
     [2, 0, 3, 2, 4, 4, 1, 0, 1, 3, 2, 0, 1, 0, 2, 3, 4, 1, 4],
     [1, 2, 3, 1, 3, 0, 3, 0, 0, 4, 1, 1, 3, 2, 0, 1, 3, 4, 0]],
    [0, 0, 1, 1], 1e8,
))
# separable, C = 1e12: at the optimum the gradient is at its rounding floor
# and no step lowers the objective in float precision
@example(_problem(
    [[4, 1, 0, 1, 2, 4], [2, 0, 1, 3, 4, 3], [4, 0, 4, 0, 2, 1], [1, 3, 1, 2, 1, 0]],
    [1, 0, 1, 1], 1e12,
))
# separable, C = 1e12: the objective falls by a factor e per step down to
# about 2e-10, then the decrement is rounding noise above 1e-10 of it; the
# solver took 59 steps here, 26 of them noise, before it stopped at steps
# that barely move the objective
@example(_problem(
    [[1, 2, 0, 0, 2, 1, 3, 2, 2, 1, 4, 2, 0, 4], [0, 3, 4, 1, 2, 4, 3, 1, 3, 3, 4, 2, 2, 0],
     [4, 0, 0, 4, 0, 2, 0, 3, 4, 4, 1, 0, 3, 2], [1, 1, 1, 2, 3, 1, 3, 0, 2, 0, 2, 1, 2, 1],
     [3, 0, 0, 4, 3, 3, 3, 1, 1, 4, 1, 0, 1, 3], [2, 4, 4, 0, 3, 1, 0, 4, 3, 0, 3, 2, 3, 0],
     [1, 1, 4, 4, 2, 0, 1, 4, 2, 0, 2, 0, 4, 4], [3, 4, 4, 0, 1, 1, 1, 4, 1, 1, 1, 0, 3, 2],
     [1, 1, 3, 2, 1, 3, 4, 2, 1, 4, 1, 0, 4, 4], [0, 3, 2, 3, 0, 2, 2, 4, 2, 2, 3, 3, 4, 1],
     [3, 0, 3, 0, 2, 0, 4, 1, 2, 2, 3, 2, 0, 2], [1, 4, 3, 3, 0, 1, 3, 1, 3, 0, 0, 3, 1, 4],
     [2, 3, 0, 2, 4, 3, 3, 0, 0, 4, 2, 0, 1, 1], [4, 1, 3, 1, 2, 4, 2, 2, 2, 0, 0, 4, 3, 1]],
    [0, 1, 1, 1, 1, 0, 1, 0, 1, 1, 1, 1, 1, 0], 1e12,
))
def test_newton_converges_and_never_loses_to_gradient_descent(problem):
    X, y, C = problem
    learner = LogisticLearner(C=C)
    learner.fit(X, y)
    assert learner.converged
    gw, gb = learner.gradient(X, y.astype(np.float64), learner.weights, learner.bias)
    assert float(np.sqrt(gw @ gw + gb * gb)) <= learner.tol
    path = learner.objective_path
    assert all(b <= a for a, b in zip(path, path[1:]))
    assert len(path) - 1 <= 50  # Newton steps, against a cap of 1000
    final = learner.objective(X, y.astype(np.float64), learner.weights, learner.bias)
    # the path adds each step's change to the objective of the zero model, so
    # it carries that starting value's rounding
    assert path[-1] == pytest.approx(final, rel=1e-9, abs=1e-12 * path[0])

    oracle = GradientDescentLogistic(C=C)
    oracle.fit(X, y)
    assert final <= oracle.objective_path[-1] + 1e-9 * abs(final)


def test_softplus_change_matches_extended_precision():
    mpmath = pytest.importorskip("mpmath")
    mpmath.mp.dps = 60

    def softplus(x):
        return mpmath.log1p(mpmath.exp(mpmath.mpf(x)))

    rng = np.random.default_rng(0)
    us = [-700.0, -50.0, -1.0, -1e-3, 0.0, 1e-3, 0.7, 20.0, 700.0, *rng.normal(0, 10, 20)]
    deltas = [-700.0, -30.0, -1.0, -1e-13, 1e-13, 1e-5, 1.0, 60.0, 700.0,
              *(rng.normal(0, 1, 20) * 10.0 ** rng.integers(-14, 2, 20))]
    for u in us:
        for delta in deltas:
            got = softplus_change(np.array([u]), np.array([delta]))
            exact = float(softplus(u + mpmath.mpf(delta)) - softplus(u))
            assert got == pytest.approx(exact, rel=1e-12, abs=1e-300)


def test_objective_keeps_its_precision_at_a_separating_fit():
    mpmath = pytest.importorskip("mpmath")
    mpmath.mp.dps = 60
    X = np.array([[4.0, 1.0], [2.0, 0.0], [4.0, 4.0], [1.0, 3.0], [0.0, 2.0]])
    y = np.array([1.0, 0.0, 1.0, 0.0, 0.0])
    w, b = np.array([20.0, 0.0]), -60.0  # margins of 20 and more
    learner = LogisticLearner(C=1e12)
    z = X @ w + b
    exact = sum(
        mpmath.log1p(mpmath.exp(-mpmath.mpf(zi) if yi == 1 else mpmath.mpf(zi)))
        for zi, yi in zip(z, y)
    ) + mpmath.mpf(float(w @ w)) / (2 * mpmath.mpf(1e12))
    assert learner.objective(X, y, w, b) == pytest.approx(float(exact), rel=1e-12, abs=0)


@pytest.mark.parametrize(
    "seed, n, width, labels, C",
    [
        (3, 2518, 26, "noisy", 1.0),
        (20, 500, 4, "separable", 0.0137),
        (0, 2500, 7, "random", 1.0),
        (18, 2500, 7, "random", 0.06),
    ],
)
def test_acceptance_sized_problems_converge(seed, n, width, labels, C):
    # At these sizes the last Newton steps lower the objective by less than
    # the rounding of the objective's float sum; the step test must still
    # see them, or the fit stalls just above `tol`.
    rng = np.random.default_rng(seed)
    X = rng.integers(0, 5, size=(n, width)).astype(np.float64)
    if labels == "random":
        y = rng.integers(0, 2, size=n)
    else:
        margin = X @ rng.normal(size=width)
        if labels == "noisy":
            margin = 0.3 * margin + rng.normal(size=n)
        y = (margin > np.median(margin)).astype(np.int64)
    learner = LogisticLearner(C=C)
    learner.fit(X, y)
    assert learner.converged
    assert len(learner.objective_path) - 1 <= 30


@pytest.mark.parametrize("seed, C", [(0, 0.1), (1, 1.0), (2, 10.0), (3, 1.0)])
def test_weights_agree_with_scipy_lbfgs(seed, C):
    optimize = pytest.importorskip("scipy.optimize")
    rng = np.random.default_rng(seed)
    X = rng.integers(0, 5, size=(300, 6)).astype(np.float64)
    noisy = X @ rng.normal(size=6) * 0.5 + rng.normal(size=300)
    y = (noisy > np.median(noisy)).astype(np.int64)
    learner = LogisticLearner(C=C)
    learner.fit(X, y)
    yf = y.astype(np.float64)

    def fun(theta):
        w, b = theta[:-1], theta[-1]
        gw, gb = learner.gradient(X, yf, w, b)
        return learner.objective(X, yf, w, b), np.append(gw, gb)

    result = optimize.minimize(
        fun, np.zeros(7), jac=True, method="L-BFGS-B",
        options={"gtol": 1e-10, "ftol": 1e-15, "maxiter": 10_000},
    )
    assert np.max(np.abs(learner.weights - result.x[:-1])) <= 1e-4
    assert abs(learner.bias - result.x[-1]) <= 1e-4
    assert learner.objective_path[-1] <= result.fun + 1e-9 * abs(result.fun)


def test_capped_lr_warning_reaches_report_json(tmp_path):
    doc = {
        "seed": 11,
        "generator": {
            "n_records": 300,
            "class_balance": 0.5,
            "seed": 3,
            "planted_factors": [
                {"feature": "weak-password", "value": 1, "victim_prob": 0.88},
                {"feature": "compulsive-buyer", "value": 1, "victim_prob": 0.88},
            ],
        },
        "learners": ["LR", "GNB"],
        "classifier_params": {"LR": {"max_iter": 2}},
        "elimination": {"min_size": 2},
    }
    emit_report(run_pipeline(config_from_dict(doc)), str(tmp_path))
    validation = json.loads((tmp_path / "report.json").read_text())["validation"]
    assert validation["LR"]["warnings"] == ["LR: iteration cap reached before convergence"]
    assert validation["GNB"]["warnings"] == []
    header = (tmp_path / "metrics.csv").read_text().splitlines()[0]
    assert header == "learner,class,precision,recall,f1,support,accuracy_pct,weighted_f1,auc"

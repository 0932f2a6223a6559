"""The second-order SMO solver of the support vector classifier against the
sweep SMO it replaced (kept in ``svc_oracle``): feasibility, KKT within
``tol``, a dual objective no worse than the oracle's, the same predictions
on planted data, the merge of identical rows, and the memory of one fit.
Its kernel-row cache against the full kernel it replaced (``FullKernelSMO``):
the same bits, with rows evicted."""

from __future__ import annotations

import tracemalloc

import numpy as np
import pytest
from hypothesis import assume, given, settings
from hypothesis import strategies as st

from riskminer.classifiers import svm
from riskminer.classifiers.svm import KernelRows, PolySVCLearner
from svc_oracle import FullKernelSMO, SweepSMO


@st.composite
def svc_problems(draw):
    """Code matrices of width 1-6 over codes 0-3 with random labels, either
    drawn row by row or from a pool of at most six distinct rows (so that
    rows repeat, often with both labels), and a penalty C log-uniform in
    [1e-2, 1e2]."""
    width = draw(st.integers(1, 6))
    n = draw(st.integers(4, 40))
    rng = np.random.default_rng(draw(st.integers(0, 2**32 - 1)))
    codes = draw(st.integers(2, 4))
    if draw(st.booleans()):
        pool = rng.integers(0, codes, size=(draw(st.integers(1, 6)), width))
        X = pool[rng.integers(0, len(pool), size=n)].astype(np.float64)
    else:
        X = rng.integers(0, codes, size=(n, width)).astype(np.float64)
    y = rng.integers(0, 2, size=n)
    assume(0 < y.sum() < n)
    C = 10.0 ** draw(st.floats(-2.0, 2.0))
    return X, y, C


def dual_objective(learner, X, y) -> float:
    """1/2 a^T Q a - sum(a) over the per-row alphas of a fitted *learner*."""
    v = learner.alphas_ * np.where(y == 1, 1.0, -1.0)
    return float(0.5 * v @ learner._kernel(X, X) @ v - learner.alphas_.sum())


@settings(max_examples=80, deadline=None)
@given(svc_problems())
def test_solver_is_feasible_meets_kkt_and_never_loses_to_the_sweep(problem):
    X, y, C = problem
    learner = PolySVCLearner(C=C)
    learner.fit(X, y)
    assert learner.converged
    alphas, sign = learner.alphas_, np.where(y == 1, 1.0, -1.0)
    assert alphas.shape == y.shape
    assert np.all(alphas >= 0) and np.all(alphas <= C)
    assert abs(sign @ alphas) <= 1e-9
    margin = sign * learner.decision_values(X)
    slack = learner.tol + 1e-6
    assert np.all(margin[alphas < C] >= 1.0 - slack)
    assert np.all(margin[alphas > 0] <= 1.0 + slack)

    # the sweep's alphas are feasible whether or not it converges, so their
    # objective bounds the minimum from above; at a tight tol the solver
    # reaches that minimum
    oracle = SweepSMO(C=C, max_passes=500)
    oracle.fit(X, y)
    tight = PolySVCLearner(C=C, tol=1e-8)
    tight.fit(X, y)
    assert tight.converged
    objective = dual_objective(tight, X, y)
    assert objective <= dual_objective(oracle, X, y) + 1e-6 * abs(objective)


@st.composite
def planted_problems(draw):
    """Rows whose code sum puts them clearly on one side: victims sum to at
    least 2 more per feature than non-victims."""
    width = draw(st.integers(1, 6))
    n = draw(st.integers(6, 60))
    rng = np.random.default_rng(draw(st.integers(0, 2**32 - 1)))
    y = rng.integers(0, 2, size=n)
    assume(0 < y.sum() < n)
    X = np.where(y[:, None] == 1, rng.integers(2, 4, size=(n, width)), rng.integers(0, 2, size=(n, width)))
    return X.astype(np.float64), y


@settings(max_examples=40, deadline=None)
@given(planted_problems())
def test_predictions_agree_with_the_sweep_on_planted_data(problem):
    X, y = problem
    learner, oracle = PolySVCLearner(), SweepSMO()
    learner.fit(X, y)
    oracle.fit(X, y)
    assert np.array_equal(learner.decision_values(X) >= 0, oracle.decision_values(X) >= 0)


@settings(max_examples=40, deadline=None)
@given(svc_problems(), st.floats(0.01, 2.0))
def test_each_row_twice_at_c_fits_the_same_params_as_once_at_2c(problem, gamma):
    X, y, C = problem
    # the iteration cap is max_passes times the rows, so it is the same for both
    twice = PolySVCLearner(C=C, gamma=gamma, max_passes=100)
    once = PolySVCLearner(C=2 * C, gamma=gamma, max_passes=200)
    twice.fit(np.vstack([X, X]), np.concatenate([y, y]))
    once.fit(X, y)
    assert twice.params.keys() == once.params.keys()
    for key, value in once.params.items():
        assert np.array_equal(twice.params[key], value), key


def test_one_fit_holds_one_kernel_matrix():
    rng = np.random.default_rng(0)
    X = rng.permutation(np.unique(rng.integers(0, 3, size=(1700, 12)), axis=0)[:1500]).astype(np.float64)
    y = (X[:, :4].sum(axis=1) > 4).astype(np.int64)
    learner = PolySVCLearner()
    tracemalloc.start()  # numpy reports its array buffers to tracemalloc
    try:
        learner.fit(X, y)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert learner.converged
    assert peak <= 1.25 * 8 * len(X) ** 2


def test_a_paper_sized_fit_holds_its_row_cache_not_its_kernel():
    # 2,500 distinct rows, about the paper-shaped run's training part: their
    # kernel is 50 MB, the row cache at most KERNEL_CACHE_MIB
    rng = np.random.default_rng(0)
    X = rng.permutation(np.unique(rng.integers(0, 3, size=(3000, 12)), axis=0)[:2500]).astype(np.float64)
    y = (X[:, :4].sum(axis=1) > 4).astype(np.int64)
    learner = PolySVCLearner()
    tracemalloc.start()
    try:
        learner.fit(X, y)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert learner.converged
    assert peak <= 0.4 * 8 * len(X) ** 2


@settings(max_examples=80, deadline=None)
@given(svc_problems(), st.integers(2, 3))
def test_a_cache_of_two_or_three_rows_fits_the_bits_of_the_full_kernel(problem, cap):
    X, y, C = problem
    m = len(np.unique(np.column_stack([X, y]), axis=0))  # the fit's distinct (row, label) pairs
    built = []

    class Recorded(KernelRows):  # keeps the cache the fit builds
        def __init__(self, *args):
            super().__init__(*args)
            built.append(self)

    with pytest.MonkeyPatch.context() as monkeypatch:
        monkeypatch.setattr(svm, "KERNEL_CACHE_MIB", cap * 8 * m / 2**20)
        monkeypatch.setattr(svm, "KernelRows", Recorded)
        learner = PolySVCLearner(C=C, max_passes=100)  # bits, not convergence, are compared
        learner.fit(X, y)
    oracle = FullKernelSMO(C=C, max_passes=100)
    oracle.fit(X, y)
    assert np.array_equal(learner.alphas_, oracle.alphas_)
    for key in ("support_vectors", "dual_coef", "intercept", "converged"):
        assert np.array_equal(learner.params[key], oracle.params[key]), key

    (cache,) = built
    full = learner._kernel(cache.rows, cache.rows, learner.gamma_value)
    assert len(cache.slots) == min(cap, m)
    assert np.array_equal(cache.diag, np.diag(full))
    for slot, row in enumerate(cache.held):
        if row >= 0:
            assert cache.owner[row] == slot
            assert np.array_equal(cache.slots[slot], full[row])


@pytest.mark.parametrize("cap", [1, 2, 3])
def test_the_row_cache_fills_its_slots_first_in_first_out(monkeypatch, cap):
    # the solver is done with row i before it fetches row j, so a returned
    # row need only hold until the next fetch; misses fill the slots in turn
    rng = np.random.default_rng(cap)
    rows = rng.integers(0, 4, size=(12, 5)).astype(np.float64)
    monkeypatch.setattr(svm, "KERNEL_CACHE_MIB", cap * 8 * len(rows) / 2**20)
    cache = KernelRows(rows, 0.25, 1.0, 3)
    full = PolySVCLearner(coef0=1.0)._kernel(rows, rows, 0.25)
    assert len(cache.slots) == cap
    missed = []  # the rows computed, in order
    for i in rng.integers(0, len(rows), size=300).tolist():
        hit = cache.owner[i] >= 0
        assert np.array_equal(cache[i], full[i])
        if not hit:
            missed.append(i)
        # the last cap misses are held, miss t in slot t % cap; a hit moves nothing
        held = range(max(0, len(missed) - cap), len(missed))
        assert [cache.held[t % cap] for t in held] == missed[-cap:]
        assert sorted(np.flatnonzero(cache.owner >= 0).tolist()) == sorted(missed[-cap:])

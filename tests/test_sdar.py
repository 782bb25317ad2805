import itertools

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from cesdar.config import SolverConfig
from cesdar.data import Dataset, SyntheticSpec, generate, stream_rng
from cesdar.sdar import (
    SparseCoefficients,
    detect_active,
    esdar_fit,
    kkt_residual,
    normal_equations,
    residual_correlation,
    root_find_local,
)
from cesdar.linalg import gram_submatrix
from helpers import orthogonal_design


# --- active-set detection -------------------------------------------------

def test_detect_active_top2():
    beta = SparseCoefficients.zeros(3)
    sel = detect_active(beta, np.array([3.0, 1.0, 2.0]), np.ones(3), 2, 1.0)
    assert np.array_equal(sel.indices, [0, 2])
    assert sel.threshold == 2.0


def test_detect_active_tie_break_smallest_index():
    beta = SparseCoefficients.zeros(4)
    sel = detect_active(beta, np.ones(4), np.ones(4), 2, 1.0)
    assert np.array_equal(sel.indices, [0, 1])


def test_detect_active_argmax():
    beta = SparseCoefficients.zeros(3)
    sel = detect_active(beta, np.array([0.1, 0.9, 0.5]), np.ones(3), 1, 1.0)
    assert np.array_equal(sel.indices, [1])


def test_detect_active_returns_exactly_t():
    rng = np.random.default_rng(4)
    for _ in range(20):
        p = int(rng.integers(2, 30))
        t = int(rng.integers(1, p + 1))
        beta = SparseCoefficients.from_dense(rng.standard_normal(p))
        sel = detect_active(beta, rng.standard_normal(p), np.abs(rng.standard_normal(p)) + 0.1, t, 0.5)
        assert sel.indices.size == t


def argsort_top(keys, sparsity):
    """Reference selection: a stable sort of the negated keys, cut at T."""
    chosen = np.argsort(-keys, kind="stable")[:sparsity]
    return np.sort(chosen), float(keys[chosen[-1]])


@settings(max_examples=200, deadline=None)
@given(data=st.data(), levels=st.lists(st.floats(0.0, 10.0), min_size=1, max_size=4),
       p=st.integers(1, 60))
def test_detect_active_matches_stable_argsort(data, levels, p):
    # Keys drawn from at most four values, so most cuts fall inside a tie.
    picks = data.draw(st.lists(st.integers(0, len(levels) - 1), min_size=p, max_size=p))
    keys = np.array(levels)[picks]
    sparsity = data.draw(st.integers(1, p))
    sel = detect_active(SparseCoefficients.zeros(p), keys, np.ones(p), sparsity, 1.0)
    indices, threshold = argsort_top(keys, sparsity)
    assert np.array_equal(sel.indices, indices) and sel.indices.dtype == np.int64
    assert sel.threshold.hex() == threshold.hex()


def test_cached_columns_leave_every_product_bitwise_unchanged():
    # Active sets that share columns, as an outer loop's do, so later sets
    # read cached columns; each product equals the one on x[:, A].
    data, _ = generate(SyntheticSpec(n=300, p=600, s=5, seed=4))
    rng = np.random.default_rng(4)
    active = np.sort(rng.choice(data.p, 8, replace=False))
    for _ in range(6):
        values = rng.standard_normal(active.size)
        dual = data.x.T @ (data.y - data.x[:, active] @ values) / data.n
        assert np.array_equal(residual_correlation(data, SparseCoefficients(data.p, active, values)),
                              dual)
        gram, rhs = normal_equations(data, active)
        assert np.array_equal(gram, gram_submatrix(data.x[:, active], float(data.n)))
        assert np.array_equal(rhs, data.x[:, active].T @ data.y / data.n)
        swap = rng.choice(active.size, 2, replace=False)
        active[swap] = rng.choice(np.setdiff1d(np.arange(data.p), active), 2, replace=False)
        active = np.sort(active)
    assert data._column_count > 0


def test_detect_active_rescale_invariance():
    # Scaling every curvature by c^2 scales all keys by c; the selected set
    # must not change.
    rng = np.random.default_rng(5)
    beta = SparseCoefficients.from_dense(rng.standard_normal(12))
    d = rng.standard_normal(12)
    g = np.abs(rng.standard_normal(12)) + 0.1
    base = detect_active(beta, d, g, 4, 0.5)
    scaled = detect_active(beta, d, g * 9.0, 4, 0.5)
    assert np.array_equal(base.indices, scaled.indices)


def test_detect_active_t_too_large():
    with pytest.raises(ValueError):
        detect_active(SparseCoefficients.zeros(3), np.zeros(3), np.ones(3), 4, 0.5)


# --- restricted root finding ----------------------------------------------

def test_root_find_orthogonal_closed_form():
    x = orthogonal_design(40, 6, seed=1)
    y = 5.0 * x[:, 2]
    data = Dataset(x, y)
    beta, jittered = root_find_local(data, [2])
    assert not jittered
    assert abs(beta.values[0] - 5.0) <= 1e-10


def test_root_find_empty_active_set():
    data = Dataset(np.eye(3), np.ones(3))
    beta, _ = root_find_local(data, [])
    assert beta.support.size == 0


def test_root_find_matches_dense_least_squares():
    rng = np.random.default_rng(6)
    x = rng.standard_normal((40, 8))
    y = x[:, 1] * 2.0 - x[:, 5] + 0.1 * rng.standard_normal(40)
    data = Dataset(x, y)
    active = np.array([1, 4, 5])
    beta, _ = root_find_local(data, active)
    oracle, *_ = np.linalg.lstsq(x[:, active], y, rcond=None)
    assert np.abs(beta.values - oracle).max() <= 1e-10


# --- dual and curvature -----------------------------------------------------

def test_dual_at_zero_is_univariate_slope():
    rng = np.random.default_rng(7)
    x = rng.standard_normal((30, 5))
    y = rng.standard_normal(30)
    data = Dataset(x, y)
    g = data.column_curvature()
    d = residual_correlation(data, SparseCoefficients.zeros(5)) / g
    for j in range(5):
        assert d[j] == pytest.approx(x[:, j] @ y / (x[:, j] @ x[:, j]), rel=1e-12)
    assert np.allclose(g, np.einsum("ij,ij->j", x, x) / 30.0)


def test_dual_zero_at_perfect_fit():
    rng = np.random.default_rng(8)
    x = rng.standard_normal((20, 4))
    beta = SparseCoefficients.from_dense(np.array([1.0, 0.0, -2.0, 0.0]))
    data = Dataset(x, x @ beta.dense())
    d = residual_correlation(data, beta) / data.column_curvature()
    assert np.abs(d).max() <= 1e-12


def test_curvature_all_ones_when_standardized():
    rng = np.random.default_rng(9)
    x = rng.standard_normal((50, 3))
    x = x / np.sqrt(np.einsum("ij,ij->j", x, x) / 50.0)
    data = Dataset(x, rng.standard_normal(50))
    g = data.column_curvature()
    assert np.allclose(g, 1.0, atol=1e-12)


# --- the full single-machine solver -----------------------------------------

def test_esdar_orthogonal_noiseless_one_iteration():
    x = orthogonal_design(50, 8, seed=2)
    truth = np.zeros(8)
    truth[[1, 6]] = [2.0, -3.0]
    data = Dataset(x, x @ truth)
    result = esdar_fit(data, SolverConfig(sparsity=2))
    assert result.converged
    assert result.iterations == 1
    assert np.array_equal(result.beta.support, [1, 6])
    assert np.abs(result.beta.dense() - truth).max() <= 1e-10


def brute_force_best_subset(data, size):
    best_cols, best_rss = None, np.inf
    for cols in itertools.combinations(range(data.p), size):
        sol, *_ = np.linalg.lstsq(data.x[:, cols], data.y, rcond=None)
        resid = data.y - data.x[:, cols] @ sol
        rss = resid @ resid
        if rss < best_rss:
            best_cols, best_rss = np.array(cols), rss
    return best_cols


def test_esdar_matches_best_subset_at_high_snr():
    hits = 0
    for seed in range(10):
        rng = stream_rng(seed, "data")
        x = rng.standard_normal((50, 12))
        support = np.sort(rng.choice(12, 3, replace=False))
        y = x[:, support] @ rng.uniform(1.0, 3.0, 3) + 0.1 * rng.standard_normal(50)
        data = Dataset(x, y)
        result = esdar_fit(data, SolverConfig(sparsity=3))
        if np.array_equal(result.beta.support, brute_force_best_subset(data, 3)):
            hits += 1
    assert hits >= 9


def test_keep_not_shrink():
    # Converged coefficients equal the unpenalized least squares on their
    # support: hard thresholding never shrinks survivors.
    for seed in range(5):
        data, _ = generate(SyntheticSpec(n=200, p=30, s=4, seed=seed))
        result = esdar_fit(data, SolverConfig(sparsity=4))
        if not result.converged:
            continue
        ls, _ = root_find_local(data, result.beta.support)
        assert np.abs(result.beta.dense() - ls.dense()).max() <= 1e-10


def test_fixed_point_reproduces_active_set():
    data, _ = generate(SyntheticSpec(n=300, p=40, s=5, seed=11))
    result = esdar_fit(data, SolverConfig(sparsity=5))
    assert result.converged
    sel = detect_active(result.beta, result.d, result.g, 5, 0.5)
    assert np.array_equal(sel.indices, result.active_history[-1])


def test_final_loss_not_worse_than_zero():
    for seed in range(5):
        data, _ = generate(SyntheticSpec(n=150, p=25, s=5, seed=seed))
        result = esdar_fit(data, SolverConfig(sparsity=5))
        assert result.rel_loss <= 1e-12


def test_non_convergence_is_flagged_not_raised():
    found = False
    for seed in range(40):
        data, _ = generate(SyntheticSpec(n=60, p=40, s=8, noise_sd=3.0, seed=seed))
        result = esdar_fit(data, SolverConfig(sparsity=8, max_iter=1))
        if not result.converged:
            found = True
            break
    assert found, "expected at least one instance needing more than one iteration"


# --- fixed-point residual ---------------------------------------------------

def test_kkt_residual_small_at_convergence():
    for seed in range(10):
        data, _ = generate(SyntheticSpec(n=200, p=30, s=5, seed=seed))
        result = esdar_fit(data, SolverConfig(sparsity=5))
        if result.converged:
            assert kkt_residual(data, result.beta, 5, 0.5) <= 1e-8


def test_kkt_residual_positive_at_zero():
    data, _ = generate(SyntheticSpec(n=100, p=15, s=3, seed=13))
    residual = kkt_residual(data, SparseCoefficients.zeros(15), 3, 0.5)
    assert residual > 1e-3


def test_kkt_residual_zero_on_exact_orthogonal_solution():
    x = orthogonal_design(30, 5, seed=3)
    truth = np.zeros(5)
    truth[[0, 3]] = [1.5, -2.5]
    data = Dataset(x, x @ truth)
    residual = kkt_residual(data, SparseCoefficients.from_dense(truth), 2, 0.5)
    assert residual <= 1e-12
